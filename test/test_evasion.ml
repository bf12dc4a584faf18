(* Evasive-adversary tests: each Strategy machine's exact timeline and
   its effect on the real checker, the trap-vs-poll detection gap, the
   read-channel anchor audit against the checker-tamperer, and the
   time-aware oracle that keeps simtest honest about TOCTOU windows. *)

module Strategy = Mc_malware.Strategy
module Patrol = Modchecker.Patrol
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Cloud = Mc_hypervisor.Cloud
module Oracle = Mc_simtest.Oracle

let check = Alcotest.check

let expect_ok = function Ok v -> v | Error e -> Alcotest.fail e

let survey ?config cloud name =
  Orchestrator.survey ?config cloud ~module_name:name

let deviants ?config cloud name = (survey ?config cloud name).Report.deviant_vms

(* --- TOCTOU restorer ---------------------------------------------------- *)

let test_toctou_timeline () =
  let cloud = Cloud.create ~vms:3 ~seed:1601L () in
  let m =
    expect_ok
      (Strategy.toctou cloud ~vm:1 ~start:10.0 ~dwell:5.0 ~period:20.0)
  in
  check
    Alcotest.(list (pair (float 1e-9) string))
    "pure schedule"
    [
      (10.0, "infected"); (15.0, "restored");
      (30.0, "infected"); (35.0, "restored");
      (50.0, "infected");
    ]
    (List.map
       (fun (t, a) ->
         (t, match a with Strategy.Infected -> "infected" | Restored -> "restored"))
       (Strategy.timeline m ~until:50.0));
  (* Infect boundary inclusive, restore boundary exclusive. *)
  Alcotest.(check bool) "clean just before start" false (Strategy.dirty_at m 9.9);
  Alcotest.(check bool) "dirty at the infect instant" true (Strategy.dirty_at m 10.0);
  Alcotest.(check bool) "dirty inside the window" true (Strategy.dirty_at m 12.0);
  Alcotest.(check bool) "clean at the restore instant" false (Strategy.dirty_at m 15.0);
  Alcotest.(check bool) "dirty again next period" true (Strategy.dirty_at m 31.0)

let test_toctou_tick_mutates_and_restores () =
  let cloud = Cloud.create ~vms:3 ~seed:1602L () in
  let m =
    expect_ok
      (Strategy.toctou cloud ~vm:1 ~start:10.0 ~dwell:5.0 ~period:20.0)
  in
  check Alcotest.(list int) "clean before start" []
    (deviants cloud "hal.dll");
  (match Strategy.tick m ~now:12.0 with
  | Ok [ (10.0, Strategy.Infected) ] -> ()
  | Ok _ -> Alcotest.fail "expected exactly the t=10 infect"
  | Error e -> Alcotest.fail e);
  check Alcotest.(list int) "dirty during the dwell" [ 1 ]
    (deviants cloud "hal.dll");
  (match Strategy.tick m ~now:16.0 with
  | Ok [ (15.0, Strategy.Restored) ] -> ()
  | Ok _ -> Alcotest.fail "expected exactly the t=15 restore"
  | Error e -> Alcotest.fail e);
  (* The restore is byte-exact: the pool is indistinguishable from one
     that was never touched. *)
  check Alcotest.(list int) "byte-exact restore" [] (deviants cloud "hal.dll");
  check Alcotest.(list int) "prints agree" []
    (deviants
       ~config:
         Orchestrator.Config.(
           default |> with_incremental (Orchestrator.create_incremental ()))
       cloud "hal.dll");
  check Alcotest.int "one infection so far" 1 (Strategy.infections m);
  check Alcotest.int "one restore so far" 1 (Strategy.restores m);
  Alcotest.(check bool) "machine still alive" true (Strategy.alive m);
  (match Strategy.next_transition m with
  | Some t -> check (Alcotest.float 1e-9) "next infect at 30" 30.0 t
  | None -> Alcotest.fail "expected a pending transition");
  (* tick is idempotent between transition times. *)
  match Strategy.tick m ~now:16.0 with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "idempotent tick performed something"
  | Error e -> Alcotest.fail e

(* --- pager -------------------------------------------------------------- *)

let test_pager_degrades_survey_instead_of_deviating () =
  let cloud = Cloud.create ~vms:4 ~seed:1603L () in
  let m = expect_ok (Strategy.pager cloud ~vm:1 ~start:5.0) in
  (match Strategy.tick m ~now:6.0 with
  | Ok [ (5.0, Strategy.Infected) ] -> ()
  | Ok _ -> Alcotest.fail "expected the t=5 hook"
  | Error e -> Alcotest.fail e);
  let s = survey cloud "hal.dll" in
  (* The hooked VM's frames fault on every Dom0 mapping: it drops out of
     the vote entirely instead of being read dirty. *)
  Alcotest.(check bool) "victim is unreachable" true
    (List.mem_assoc 1 s.Report.unreachable_on);
  check Alcotest.(list int) "never reported deviant" [] s.Report.deviant_vms;
  check Alcotest.int "the rest respond" 3 s.Report.s_responded

(* --- coordinated racer -------------------------------------------------- *)

let test_race_flips_majority_vote () =
  let cloud = Cloud.create ~vms:5 ~seed:1604L () in
  let m = expect_ok (Strategy.race cloud ~vms:[ 0; 1; 2 ] ~start:5.0) in
  (match Strategy.tick m ~now:6.0 with
  | Ok [ (5.0, Strategy.Infected) ] -> ()
  | Ok _ -> Alcotest.fail "expected the coordinated patch at t=5"
  | Error e -> Alcotest.fail e);
  (* Three of five carry the same patch: the infected copies vouch for
     each other and the clean minority gets framed. *)
  check Alcotest.(list int) "clean minority framed" [ 3; 4 ]
    (deviants cloud "hal.dll");
  check Alcotest.(list int) "prints framed too" [ 3; 4 ]
    (deviants
       ~config:
         Orchestrator.Config.(
           default |> with_incremental (Orchestrator.create_incremental ()))
       cloud "hal.dll")

(* --- checker-tamperer --------------------------------------------------- *)

let test_tamper_hides_from_survey_anchor_audit_catches () =
  let cloud = Cloud.create ~vms:3 ~seed:1605L () in
  let m = expect_ok (Strategy.tamper cloud ~vm:0 ~start:5.0) in
  (match Strategy.tick m ~now:6.0 with
  | Ok [ (5.0, Strategy.Infected) ] -> ()
  | Ok _ -> Alcotest.fail "expected the t=5 shim install"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shim installed" true (Strategy.masked m);
  (* Every survey channel the checker normally uses reads through the
     shim and sees the clean snapshot. *)
  let inc = Orchestrator.create_incremental () in
  let config = Orchestrator.Config.(default |> with_incremental inc) in
  check Alcotest.(list int) "survey is blind" []
    (deviants ~config cloud "hal.dll");
  (* The raw physical read path is not interposable; auditing the two
     channels against each other over the cached footprint exposes the
     lie, pinned to the module and VM. *)
  check
    Alcotest.(list (pair string int))
    "anchor audit names the victim"
    [ ("hal.dll", 0) ]
    (Orchestrator.audit_anchors inc cloud ~watch:[ "hal.dll" ])

let test_tamper_patrol_raises_anchor_mismatch () =
  let cloud = Cloud.create ~vms:3 ~seed:1606L () in
  let m = expect_ok (Strategy.tamper cloud ~vm:1 ~start:25.0) in
  let config =
    {
      Patrol.default_config with
      Patrol.watch = [ "hal.dll" ];
      interval_s = 20.0;
      incremental = true;
      audit_anchors = true;
    }
  in
  let o =
    Patrol.run ~config
      ~events:(Strategy.events m ~until:100.0)
      cloud ~until:100.0
  in
  let anchor_alarms =
    List.filter (fun a -> a.Patrol.kind = Patrol.Anchor_mismatch) o.Patrol.alarms
  in
  Alcotest.(check bool) "anchor mismatch raised" true (anchor_alarms <> []);
  List.iter
    (fun a ->
      check Alcotest.string "on the watched module" "hal.dll"
        a.Patrol.alarm_module;
      check Alcotest.(list int) "naming the shimmed VM" [ 1 ]
        a.Patrol.alarm_vms)
    anchor_alarms;
  (* Anchor mismatches count as detections. *)
  (match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:25.0 with
  | Some d -> Alcotest.(check bool) "detected within a sweep period" true (d <= 20.5)
  | None -> Alcotest.fail "tamperer went undetected")

(* --- trap vs poll: the restore write is itself a trap ------------------- *)

let test_trap_catches_what_polling_misses () =
  (* Dirty windows [7,17) and [107,117); 30 s sweeps observe at 0, 30,
     60, 90, 120 — never inside a window. *)
  let run trigger =
    let cloud = Cloud.create ~vms:3 ~seed:1607L () in
    let m =
      expect_ok
        (Strategy.toctou cloud ~vm:1 ~start:7.0 ~dwell:10.0 ~period:100.0)
    in
    let config =
      {
        Patrol.default_config with
        Patrol.watch = [ "hal.dll" ];
        interval_s = 30.0;
        incremental = trigger = Patrol.Traps;
      }
    in
    Patrol.run ~config ~trigger
      ~events:(Strategy.events m ~until:120.0)
      cloud ~until:120.0
  in
  let polled = run Patrol.Poll in
  (match Patrol.time_to_detect polled ~module_name:"hal.dll" ~infected_at:7.0 with
  | None -> ()
  | Some d -> Alcotest.failf "30s polling should miss both windows, got %.3fs" d);
  let trapped = run Patrol.Traps in
  let deviations =
    List.filter
      (fun a -> a.Patrol.kind = Patrol.Hash_deviation)
      trapped.Patrol.alarms
  in
  check Alcotest.int "both infect writes trap" 2 (List.length deviations);
  List.iter
    (fun a ->
      check Alcotest.(list int) "naming the victim" [ 1 ] a.Patrol.alarm_vms)
    deviations;
  match Patrol.time_to_detect trapped ~module_name:"hal.dll" ~infected_at:7.0 with
  | Some d -> Alcotest.(check bool) "detection is immediate" true (d < 1.0)
  | None -> Alcotest.fail "event-driven patrol missed the TOCTOU restorer"

(* --- detection probability is monotone in sampling cadence -------------- *)

let prop_sampling_monotone =
  (* Pure timeline property: the sweep instants at interval 30 are a
     subset of those at 15, which are a subset of those at 5, so
     detection under ideal sampling can only improve as the cadence
     rises — for every (start, dwell, period), not just on average. *)
  let gen =
    QCheck.Gen.(
      let* start = float_range 0.0 120.0 in
      let* dwell = float_range 0.5 8.0 in
      let* slack = float_range 2.0 60.0 in
      return (start, dwell, dwell +. slack))
  in
  QCheck.Test.make ~count:200
    ~name:"ideal-sampling detection is monotone in cadence"
    (QCheck.make gen)
    (fun (start, dwell, period) ->
      let cloud = Cloud.create ~vms:2 ~seed:1608L () in
      let m =
        match Strategy.toctou cloud ~vm:0 ~start ~dwell ~period with
        | Ok m -> m
        | Error e -> QCheck.Test.fail_report e
      in
      let detect interval =
        let rec probe t = t <= 240.0 && (Strategy.dirty_at m t || probe (t +. interval)) in
        probe 0.0
      in
      let d5 = detect 5.0 and d15 = detect 15.0 and d30 = detect 30.0 in
      (not d30 || d15) && (not d15 || d5))

let test_patrol_detection_probability_monotone () =
  (* The real-patrol X16 rows (virtual clock, deterministic): tighter
     cadence never detects less, and the event-driven row is certain.
     30 s polling against a 5 s dwell sits near the dwell ratio and must
     not look reliable; if it does, the adversary model has gone soft. *)
  let rows = Mc_harness.Figures.evasion_detection () in
  let p label =
    (List.find (fun r -> r.Mc_harness.Figures.ez_label = label) rows)
      .Mc_harness.Figures.ez_detect_p
  in
  Alcotest.(check bool) "p(5s) >= p(15s)" true (p "poll 5s" >= p "poll 15s");
  Alcotest.(check bool) "p(15s) >= p(30s)" true (p "poll 15s" >= p "poll 30s");
  Alcotest.(check bool) "event-driven is certain" true
    (p "event-driven" >= 0.99);
  Alcotest.(check bool) "p(30s) <= 0.5" true (p "poll 30s" <= 0.5)

(* --- the time-aware oracle ---------------------------------------------- *)

let test_oracle_windows_match_guest_truth () =
  (* Regression: an oracle that modeled a TOCTOU infect as permanent
     would predict a deviation during the clean dwell and false-flag
     every surviving checker. The time-aware tag must cycle with the
     machine's windows and agree with a real survey on both sides of the
     restore boundary. *)
  let oracle = Oracle.create ~vms:3 in
  Oracle.set_now oracle 10.0;
  Oracle.apply_evade_toctou oracle ~vm:1 ~module_name:"hal.dll"
    ~func:"HalInitSystem" ~dwell:5.0 ~period:20.0;
  let tag_at t =
    Oracle.set_now oracle t;
    Oracle.tag oracle 1 "hal.dll"
  in
  Alcotest.(check bool) "dirty inside the dwell" true
    (tag_at 12.0 <> Some Oracle.clean_tag);
  Alcotest.(check bool) "clean after the restore" true
    (tag_at 20.0 = Some Oracle.clean_tag);
  Alcotest.(check bool) "dirty again next period" true
    (tag_at 31.0 <> Some Oracle.clean_tag);
  Alcotest.(check bool) "still counted as an infection" true
    (Oracle.infections oracle >= 1);
  (* The guest agrees: drive the real machine over the same schedule and
     survey during a clean dwell. *)
  let cloud = Cloud.create ~vms:3 ~seed:1609L () in
  let m =
    expect_ok (Strategy.toctou cloud ~vm:1 ~start:10.0 ~dwell:5.0 ~period:20.0)
  in
  (match Strategy.tick m ~now:20.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.(list int) "real survey intact during the clean dwell" []
    (deviants cloud "hal.dll")

let () =
  Alcotest.run "evasion"
    [
      ( "toctou",
        [
          Alcotest.test_case "timeline and dirty windows" `Quick
            test_toctou_timeline;
          Alcotest.test_case "tick mutates and restores byte-exact" `Quick
            test_toctou_tick_mutates_and_restores;
        ] );
      ( "pager",
        [
          Alcotest.test_case "degrades instead of deviating" `Quick
            test_pager_degrades_survey_instead_of_deviating;
        ] );
      ( "race",
        [
          Alcotest.test_case "flips the majority vote" `Quick
            test_race_flips_majority_vote;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "survey blind, anchor audit catches" `Quick
            test_tamper_hides_from_survey_anchor_audit_catches;
          Alcotest.test_case "patrol raises anchor mismatch" `Quick
            test_tamper_patrol_raises_anchor_mismatch;
        ] );
      ( "detection",
        [
          Alcotest.test_case "trap catches what polling misses" `Quick
            test_trap_catches_what_polling_misses;
          QCheck_alcotest.to_alcotest prop_sampling_monotone;
          Alcotest.test_case "patrol detection probability monotone" `Slow
            test_patrol_detection_probability_monotone;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "time-aware windows match guest truth" `Quick
            test_oracle_windows_match_guest_truth;
        ] );
    ]
