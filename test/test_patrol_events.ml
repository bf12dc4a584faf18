(* Tests for event-driven (write-trap) patrol and the patrol bugfix
   sweep that rode along with it. *)

module Patrol = Modchecker.Patrol
module Orchestrator = Modchecker.Orchestrator
module Cloud = Mc_hypervisor.Cloud
module Faultplan = Mc_memsim.Faultplan
module Infect = Mc_malware.Infect
module Xenctl = Mc_hypervisor.Xenctl
module Tel = Mc_telemetry.Registry

let check = Alcotest.check

let expect_ok = function Ok v -> v | Error e -> Alcotest.fail e

let small_config =
  {
    Patrol.default_config with
    Patrol.watch = [ "hal.dll"; "http.sys" ];
    interval_s = 10.0;
  }

(* Normalize an alarm list to a comparable set. *)
let alarm_set alarms =
  List.sort_uniq compare
    (List.map
       (fun a ->
         ( Patrol.alarm_kind_key a.Patrol.kind,
           a.Patrol.alarm_module,
           a.Patrol.alarm_vms ))
       alarms)

let alarm_list = Alcotest.(list (triple string string (list int)))

let integrity_set alarms =
  alarm_set
    (List.filter
       (fun a -> a.Patrol.kind <> Patrol.Quorum_loss)
       alarms)

(* --- bugfix regressions ---------------------------------------------------- *)

(* A patrol that checks nothing: sweeps cost no virtual time, so only the
   loop's own scheduling is under test. *)
let empty_config =
  {
    small_config with
    Patrol.watch = [];
    compare_lists = false;
    interval_s = 30.0;
  }

let triggers = [ ("poll", Patrol.Poll, 4); ("traps", Patrol.Traps, 1) ]

(* The polling loop used to drain scheduled events only at the top of
   each sweep iteration, so an event landing between the final sweep's
   start and [until] never fired at all. *)
let test_late_event_still_fires () =
  List.iter
    (fun (name, trigger, sweeps) ->
      let cloud = Cloud.create ~vms:2 ~seed:801L () in
      let fired = ref false in
      (* Polling sweeps start at 0, 30, 60, 90; the loop exits with the
         clock jumped to 120 > until. Under traps only the baseline at 0
         runs (the safety sweep is due at 600). Either way the event at
         95 is inside the window and must fire. *)
      let o =
        Patrol.run ~config:empty_config ~trigger
          ~events:[ (95.0, fun _ -> fired := true) ]
          cloud ~until:100.0
      in
      Alcotest.(check bool) (name ^ ": in-window event fired") true !fired;
      check Alcotest.int (name ^ ": sweeps") sweeps o.Patrol.sweeps)
    triggers

let test_out_of_window_event_does_not_fire () =
  List.iter
    (fun (name, trigger, _) ->
      let cloud = Cloud.create ~vms:2 ~seed:802L () in
      let fired = ref false in
      ignore
        (Patrol.run ~config:empty_config ~trigger
           ~events:[ (100.5, fun _ -> fired := true) ]
           cloud ~until:100.0);
      Alcotest.(check bool)
        (name ^ ": event past the horizon never fires")
        false !fired)
    triggers

(* A zero interval used to poll back-to-back at 100% duty (and, with no
   work to price, would never advance the clock), and under traps it
   escaped the CLI as an uncaught exception. *)
let test_non_positive_interval_rejected () =
  List.iter
    (fun (name, trigger, _) ->
      List.iter
        (fun interval_s ->
          let cloud = Cloud.create ~vms:2 ~seed:808L () in
          Alcotest.check_raises
            (Printf.sprintf "%s: interval %g" name interval_s)
            (Invalid_argument "Patrol.run_session: interval_s must be positive")
            (fun () ->
              ignore
                (Patrol.run ~config:{ empty_config with Patrol.interval_s }
                   ~trigger cloud ~until:10.0)))
        [ 0.0; -1.0; Float.nan ])
    triggers

(* patrol/evade used to exit "infected" on any alarm, even a run whose
   only finding was that too few VMs answered. *)
let test_exit_code_of_alarms () =
  let module E = Modchecker.Exit_code in
  let alarm kind =
    { Patrol.at = 1.0; alarm_module = "hal.dll"; alarm_vms = [ 1 ]; kind }
  in
  let code kinds = E.of_alarms (List.map alarm kinds) in
  check Alcotest.int "no alarms" E.ok (code []);
  check Alcotest.int "quorum loss only" E.degraded
    (code [ Patrol.Quorum_loss; Patrol.Quorum_loss ]);
  List.iter
    (fun kind ->
      check Alcotest.int (Patrol.alarm_kind_key kind) E.infected
        (code [ kind ]))
    [
      Patrol.Hash_deviation;
      Patrol.Missing_module;
      Patrol.List_discrepancy;
      Patrol.Anchor_mismatch;
    ];
  check Alcotest.int "degraded outranks infected" E.degraded
    (code [ Patrol.Hash_deviation; Patrol.Quorum_loss ])

(* time_to_detect used to match alarms by module name alone, so a
   degraded sweep's Quorum_loss (or a list alarm) on the same module
   read as an instant detection. *)
let test_ttd_ignores_non_integrity_alarms () =
  let outcome =
    {
      Patrol.alarms =
        [
          {
            Patrol.at = 40.0;
            alarm_module = "hal.dll";
            alarm_vms = [ 2 ];
            kind = Patrol.Quorum_loss;
          };
          {
            Patrol.at = 55.0;
            alarm_module = "hal.dll";
            alarm_vms = [];
            kind = Patrol.List_discrepancy;
          };
          {
            Patrol.at = 70.0;
            alarm_module = "hal.dll";
            alarm_vms = [ 1 ];
            kind = Patrol.Hash_deviation;
          };
        ];
      sweeps = 3;
      reactions = 0;
      virtual_elapsed = 80.0;
      cpu_spent = 0.1;
      mean_sweep_wall = 0.01;
      sweep_cpus = [];
      latencies_s = [];
    }
  in
  (match Patrol.time_to_detect outcome ~module_name:"hal.dll" ~infected_at:35.0 with
  | Some ttd ->
      check (Alcotest.float 1e-9) "first integrity alarm, not the degraded sweep"
        35.0 ttd
  | None -> Alcotest.fail "hash deviation must count as detection");
  let only_noise =
    { outcome with Patrol.alarms = [ List.hd outcome.Patrol.alarms ] }
  in
  Alcotest.(check bool) "quorum loss alone is not a detection" true
    (Patrol.time_to_detect only_noise ~module_name:"hal.dll" ~infected_at:35.0
    = None)

(* --- event-driven patrol --------------------------------------------------- *)

let test_event_driven_detects_fast () =
  let cloud = Cloud.create ~vms:3 ~seed:803L () in
  let infect cloud = ignore (expect_ok (Infect.inline_hook cloud ~vm:1)) in
  let o =
    Patrol.run ~config:small_config ~trigger:Patrol.Traps
      ~events:[ (35.0, infect) ] cloud ~until:100.0
  in
  let hits =
    List.filter
      (fun a ->
        a.Patrol.alarm_module = "hal.dll"
        && a.Patrol.kind = Patrol.Hash_deviation)
      o.Patrol.alarms
  in
  Alcotest.(check bool) "alarm raised" true (hits <> []);
  Alcotest.(check bool) "at least one reaction" true (o.Patrol.reactions >= 1);
  (match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:35.0 with
  | Some ttd ->
      Alcotest.(check bool)
        (Printf.sprintf "TTD %.4fs is way below the 10s interval" ttd)
        true
        (ttd >= 0.0 && ttd < small_config.Patrol.interval_s /. 10.0)
  | None -> Alcotest.fail "event-driven patrol must detect");
  Alcotest.(check bool) "latency recorded" true (o.Patrol.latencies_s <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "latency %.4fs sane" l)
        true
        (l >= 0.0 && l < small_config.Patrol.interval_s))
    o.Patrol.latencies_s

let test_benign_touch_reacts_without_alarm () =
  let cloud = Cloud.create ~vms:3 ~seed:804L () in
  let touch cloud =
    ignore (expect_ok (Infect.benign_touch ~module_name:"hal.dll" cloud ~vm:0))
  in
  let o =
    Patrol.run ~config:small_config ~trigger:Patrol.Traps
      ~events:[ (20.0, touch) ] cloud ~until:60.0
  in
  Alcotest.(check bool) "the write trapped and was rechecked" true
    (o.Patrol.reactions >= 1);
  check Alcotest.int "no alarms from a benign write" 0
    (List.length o.Patrol.alarms)

let test_idle_pool_costs_nothing_extra () =
  (* No guest writes → no traps → the only work after the baseline is the
     (rare) safety sweep. Acceptance: ≤ 1/10 of 30s-interval polling. *)
  let until = 600.0 in
  let poll =
    let cloud = Cloud.create ~vms:4 ~seed:805L () in
    let config = { small_config with Patrol.interval_s = 30.0 } in
    Patrol.run ~config cloud ~until
  in
  let trap =
    let cloud = Cloud.create ~vms:4 ~seed:805L () in
    let config = { small_config with Patrol.interval_s = 30.0 } in
    Patrol.run ~config ~trigger:Patrol.Traps cloud ~until
  in
  check Alcotest.int "no reactions on an idle pool" 0 trap.Patrol.reactions;
  (* Steady state: everything after each mode's first (cold) sweep. *)
  let steady o =
    match o.Patrol.sweep_cpus with
    | first :: _ -> o.Patrol.cpu_spent -. first
    | [] -> 0.0
  in
  let poll_steady = steady poll and trap_steady = steady trap in
  Alcotest.(check bool)
    (Printf.sprintf "trap steady %.6fs ≤ poll steady %.6fs / 10" trap_steady
       poll_steady)
    true
    (trap_steady <= poll_steady /. 10.0)

let test_reboot_rearms_and_detects () =
  (* single_opcode_replacement patches the disk image and reboots the
     victim: the new memory epoch silently voids that VM's watches. The
     session must notice, recheck everything on it, and re-arm. *)
  let cloud = Cloud.create ~vms:3 ~seed:806L () in
  let infect cloud =
    ignore (expect_ok (Infect.single_opcode_replacement cloud ~vm:1))
  in
  let o =
    Patrol.run ~config:small_config ~trigger:Patrol.Traps
      ~events:[ (25.0, infect) ] cloud ~until:80.0
  in
  match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:25.0 with
  | Some ttd ->
      Alcotest.(check bool)
        (Printf.sprintf "detected across the reboot in %.4fs" ttd)
        true
        (ttd >= 0.0 && ttd < small_config.Patrol.interval_s)
  | None -> Alcotest.fail "epoch change must trigger a full VM recheck"

(* --- parity: event-driven ≡ polling, across all six techniques ------------- *)

let techniques =
  [
    ("opcode", "hal.dll", fun c -> ignore (expect_ok (Infect.single_opcode_replacement c ~vm:1)));
    ("hook", "hal.dll", fun c -> ignore (expect_ok (Infect.inline_hook c ~vm:1)));
    ("stub", "hello.sys", fun c -> ignore (expect_ok (Infect.stub_modification c ~vm:1)));
    ("dll-inject", "dummy.sys", fun c -> ignore (expect_ok (Infect.dll_injection c ~vm:1)));
    ("ptr", "hal.dll", fun c -> ignore (expect_ok (Infect.pointer_hook c ~vm:1)));
    ("hide", "http.sys", fun c -> ignore (expect_ok (Infect.hide_module c ~vm:1 ~module_name:"http.sys")));
  ]

let watch_for target =
  if List.mem target small_config.Patrol.watch then small_config.Patrol.watch
  else target :: small_config.Patrol.watch

let run_both ~seed ~fault_spec ~technique:(_, target, infect) =
  let interval = 10.0 and infected_at = 23.0 and until = 90.0 in
  let config = { small_config with Patrol.watch = watch_for target; interval_s = interval } in
  let events = [ (infected_at, infect) ] in
  let with_faults cloud =
    match fault_spec with
    | None -> cloud
    | Some spec ->
        Cloud.set_fault_spec cloud (Some spec);
        cloud
  in
  let run trigger =
    Patrol.run ~config ~events ~trigger
      (with_faults (Cloud.create ~vms:4 ~seed ()))
      ~until
  in
  let poll = run Patrol.Poll and trap = run Patrol.Traps in
  (config, target, infected_at, poll, trap)

let assert_parity ~name (_, target, infected_at, poll, trap) =
  Alcotest.(check (list (triple string string (list int))))
    (name ^ ": same integrity alarm set")
    (integrity_set poll.Patrol.alarms)
    (integrity_set trap.Patrol.alarms);
  let poll_ttd = Patrol.time_to_detect poll ~module_name:target ~infected_at in
  let trap_ttd = Patrol.time_to_detect trap ~module_name:target ~infected_at in
  match (poll_ttd, trap_ttd) with
  | Some p, Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: trap TTD %.4fs ≤ poll TTD %.4fs" name t p)
        true
        (t <= p +. 1e-9);
      (p, t)
  | _ ->
      Alcotest.fail
        (Printf.sprintf "%s: both modes must detect (poll %b, trap %b)" name
           (poll_ttd <> None) (trap_ttd <> None))

let test_six_technique_parity_and_latency () =
  let ratios =
    List.map
      (fun ((name, _, _) as technique) ->
        let r = run_both ~seed:807L ~fault_spec:None ~technique in
        let p, t = assert_parity ~name r in
        let (config, _, _, _, _) = r in
        Alcotest.(check bool)
          (Printf.sprintf "%s: trap TTD %.4fs at least 10x below interval" name t)
          true
          (t < config.Patrol.interval_s /. 10.0);
        p /. Float.max t 1e-9)
      techniques
  in
  (* 6/6 detected in both modes (assert_parity failed otherwise), and
     every technique saw a real latency win. *)
  check Alcotest.int "all six techniques ran" 6 (List.length ratios);
  List.iter
    (fun r -> Alcotest.(check bool) "trap beats poll" true (r >= 1.0))
    ratios

let prop_parity_under_faults =
  QCheck.Test.make ~count:8
    ~name:"event-driven ≡ polling alarm set (random technique, 5% faults)"
    QCheck.(pair (int_bound 100000) (int_bound 5))
    (fun (seed, ti) ->
      let ((name, _, _) as technique) = List.nth techniques ti in
      let fault_spec =
        match Faultplan.of_string (Printf.sprintf "transient=0.05,seed=%d" (seed + 1)) with
        | Ok s -> Some s
        | Error e -> failwith e
      in
      let r =
        run_both ~seed:(Int64.of_int (seed + 11)) ~fault_spec ~technique
      in
      ignore (assert_parity ~name r);
      true)

(* --- re-arming by delta ------------------------------------------------------ *)

(* A reaction re-derives the trap map only on VMs whose epoch, disarmed
   frames or cache footprints moved. Whatever it skips, every VM's armed
   frames must still be exactly its current footprints, and the
   [patrol.rearm_vms] counter says how many VMs were re-derived. *)
let trap_session cloud =
  let inc = Orchestrator.create_incremental () in
  let config =
    {
      small_config with
      Patrol.incremental = true;
      check = Orchestrator.Config.with_incremental inc Orchestrator.Config.default;
    }
  in
  (inc, Patrol.Events.in_process ~config cloud)

let armed_matches_footprints inc cloud what =
  for vm = 0 to Cloud.vm_count cloud - 1 do
    let dom = Cloud.vm cloud vm in
    let want =
      Orchestrator.watch_pfns inc dom ~vm ~watch:small_config.Patrol.watch
      |> List.concat_map snd |> List.sort_uniq compare
    in
    check
      Alcotest.(list int)
      (Printf.sprintf "%s: Dom%d armed = footprints" what vm)
      want (Xenctl.watched_pfns dom)
  done

(* [f ()] and how many VMs it re-derived. *)
let rearmed f =
  let count () =
    Option.value ~default:0
      (List.assoc_opt "patrol.rearm_vms" (Tel.snapshot ()).Tel.snap_counters)
  in
  let before = count () in
  let r = f () in
  (r, count () - before)

let with_telemetry f =
  Tel.reset ();
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) f

let test_rearm_by_delta () =
  with_telemetry @@ fun () ->
  let vms = 8 in
  let cloud = Cloud.create ~vms ~seed:809L () in
  let snaps = Array.init vms (Cloud.snapshot_vm cloud) in
  let inc, session = trap_session cloud in
  Patrol.Events.set_now session 0.0;
  let _, n = rearmed (fun () -> Patrol.Events.baseline session ~now:0.0) in
  check Alcotest.int "baseline arms all VMs" vms n;
  armed_matches_footprints inc cloud "baseline";
  let rng = Random.State.make [| 809 |] in
  let watch = Array.of_list small_config.Patrol.watch in
  let hooked = ref 0 in
  for step = 1 to 40 do
    let now = float_of_int step in
    Patrol.Events.set_now session now;
    let vm = Random.State.int rng vms in
    let what, want =
      match step mod 10 with
      | 3 ->
          ignore (expect_ok (Infect.inline_hook cloud ~vm));
          hooked := vm;
          (Printf.sprintf "step %d: hook Dom%d" step vm, None)
      | 4 ->
          let vm = !hooked in
          Cloud.restore_vm cloud vm snaps.(vm);
          (Printf.sprintf "step %d: restore Dom%d" step vm, Some 1)
      | 7 when step = 17 ->
          ignore (expect_ok (Infect.single_opcode_replacement cloud ~vm));
          (Printf.sprintf "step %d: reboot Dom%d" step vm, Some 1)
      | _ ->
          let module_name = watch.(Random.State.int rng (Array.length watch)) in
          let pages = 1 + Random.State.int rng 4 in
          ignore (expect_ok (Infect.benign_touch ~module_name ~pages cloud ~vm));
          ( Printf.sprintf "step %d: touch Dom%d %s %d" step vm module_name pages,
            Some 1 )
    in
    let r, n = rearmed (fun () -> Patrol.Events.react session ~now) in
    Alcotest.(check bool) (what ^ ": reacted") true (r <> None);
    (match want with
    | Some k -> check Alcotest.int (what ^ ": VMs re-derived") k n
    | None -> ());
    armed_matches_footprints inc cloud what
  done

(* A VM can gain footprints with no trap and no epoch change behind them:
   here every read of the baseline faults, so nothing is cached or armed,
   and the next safety sweep caches every footprint. Only the caches'
   generations say those VMs must be re-derived. *)
let test_rearm_after_faulted_baseline () =
  with_telemetry @@ fun () ->
  let vms = 4 in
  let cloud = Cloud.create ~vms ~seed:810L () in
  let inc, session = trap_session cloud in
  let paged = expect_ok (Faultplan.of_string "paged=1.0,seed=1") in
  Cloud.set_fault_spec cloud (Some paged);
  Patrol.Events.set_now session 0.0;
  ignore (Patrol.Events.baseline session ~now:0.0);
  armed_matches_footprints inc cloud "faulted baseline";
  Cloud.set_fault_spec cloud None;
  Patrol.Events.set_now session 1.0;
  let _, n = rearmed (fun () -> Patrol.Events.baseline session ~now:1.0) in
  check Alcotest.int "every VM cached something new" vms n;
  Alcotest.(check bool) "the safety sweep armed frames" true
    (Xenctl.watched_pfns (Cloud.vm cloud 0) <> []);
  armed_matches_footprints inc cloud "safety sweep";
  (* A trapped VM whose refresh faults drops its entry and stores none:
     its remaining frames of that source must be released. *)
  Cloud.set_fault_spec cloud (Some paged);
  Patrol.Events.set_now session 2.0;
  ignore (expect_ok (Infect.benign_touch ~module_name:"hal.dll" cloud ~vm:0));
  let _, n = rearmed (fun () -> Patrol.Events.react session ~now:2.0) in
  check Alcotest.int "only the trapped VM" 1 n;
  armed_matches_footprints inc cloud "faulted refresh"

(* --- restores revalidate cached prints ---------------------------------------- *)

(* Page stamps survive a snapshot and its restores, so a restored VM's
   cached prints and list walks are revalidated by their footprints
   instead of rebuilt; what the restore changed is refreshed, and the
   alarms are those a rebuild would raise. *)
let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Tel.snapshot ()).Tel.snap_counters)

let hal_hook = [ ("hash_deviation", "hal.dll", [ 1 ]) ]

let test_restore_revalidates () =
  with_telemetry @@ fun () ->
  let cloud = Cloud.create ~vms:3 ~seed:811L () in
  let clean = Cloud.snapshot_vm cloud 1 in
  let inc, session = trap_session cloud in
  let step = ref 0 in
  let react what stage =
    incr step;
    let now = float_of_int !step in
    Patrol.Events.set_now session now;
    stage ();
    let misses = counter "digest_cache.misses"
    and rebuilds = counter "merkle.full_rebuilds"
    and revalidated = counter "digest_cache.revalidated" in
    let alarms =
      match Patrol.Events.react session ~now with
      | Some r -> integrity_set r.Patrol.Events.rx_alarms
      | None -> Alcotest.fail (what ^ ": no reaction")
    in
    armed_matches_footprints inc cloud what;
    ( alarms,
      counter "digest_cache.misses" - misses
      + (counter "merkle.full_rebuilds" - rebuilds),
      counter "digest_cache.revalidated" - revalidated )
  in
  let hook () = ignore (expect_ok (Infect.inline_hook cloud ~vm:1)) in
  Patrol.Events.set_now session 0.0;
  ignore (Patrol.Events.baseline session ~now:0.0);
  let alarms, _, _ = react "hook after the snapshot" hook in
  check alarm_list "an infection written after the snapshot" hal_hook alarms;
  let infected = Cloud.snapshot_vm cloud 1 in
  let alarms, rebuilt, revalidated =
    react "clean restore" (fun () -> Cloud.restore_vm cloud 1 clean)
  in
  check alarm_list "a clean restore raises nothing" [] alarms;
  check Alcotest.int "a clean restore rebuilds nothing" 0 rebuilt;
  Alcotest.(check bool) "a clean restore revalidates" true (revalidated > 0);
  let alarms, _, _ = react "hook after the restore" hook in
  check alarm_list "an infection of the restored memory" hal_hook alarms;
  ignore (react "clean again" (fun () -> Cloud.restore_vm cloud 1 clean));
  let alarms, rebuilt, revalidated =
    react "infected restore" (fun () -> Cloud.restore_vm cloud 1 infected)
  in
  check alarm_list "an infected restore raises the hook again" hal_hook alarms;
  check Alcotest.int "an infected restore rebuilds nothing" 0 rebuilt;
  Alcotest.(check bool) "an infected restore revalidates" true (revalidated > 0);
  let alarms, rebuilt, revalidated =
    react "reboot" (fun () -> Cloud.reboot_vm cloud 1)
  in
  check alarm_list "a reboot reloads clean modules" [] alarms;
  Alcotest.(check bool) "a reboot rebuilds" true (rebuilt > 0);
  check Alcotest.int "a reboot revalidates nothing" 0 revalidated

let () =
  Alcotest.run "patrol-events"
    [
      ( "bugfixes",
        [
          Alcotest.test_case "late event fires" `Quick test_late_event_still_fires;
          Alcotest.test_case "out-of-window event dropped" `Quick
            test_out_of_window_event_does_not_fire;
          Alcotest.test_case "ttd integrity kinds only" `Quick
            test_ttd_ignores_non_integrity_alarms;
          Alcotest.test_case "non-positive interval rejected" `Quick
            test_non_positive_interval_rejected;
          Alcotest.test_case "exit code of alarms" `Quick
            test_exit_code_of_alarms;
        ] );
      ( "event-driven",
        [
          Alcotest.test_case "fast detection" `Quick test_event_driven_detects_fast;
          Alcotest.test_case "benign touch no alarm" `Quick
            test_benign_touch_reacts_without_alarm;
          Alcotest.test_case "idle pool near-zero cost" `Quick
            test_idle_pool_costs_nothing_extra;
          Alcotest.test_case "reboot re-arms" `Quick test_reboot_rearms_and_detects;
          Alcotest.test_case "re-arm by delta" `Quick test_rearm_by_delta;
          Alcotest.test_case "restore revalidates" `Quick
            test_restore_revalidates;
          Alcotest.test_case "re-arm after faulted reads" `Quick
            test_rearm_after_faulted_baseline;
        ] );
      ( "parity",
        Alcotest.test_case "six techniques, latency 10x" `Slow
          test_six_technique_parity_and_latency
        :: List.map QCheck_alcotest.to_alcotest [ prop_parity_under_faults ] );
    ]
