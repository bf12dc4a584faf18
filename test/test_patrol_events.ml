(* Tests for event-driven (write-trap) patrol and the patrol bugfix
   sweep that rode along with it. *)

module Patrol = Modchecker.Patrol
module Orchestrator = Modchecker.Orchestrator
module Cloud = Mc_hypervisor.Cloud
module Faultplan = Mc_memsim.Faultplan
module Infect = Mc_malware.Infect

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
        ] );
      ( "parity",
        Alcotest.test_case "six techniques, latency 10x" `Slow
          test_six_technique_parity_and_latency
        :: List.map QCheck_alcotest.to_alcotest [ prop_parity_under_faults ] );
    ]
