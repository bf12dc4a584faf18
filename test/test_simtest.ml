(* The simulation harness's own tests: determinism (same seed, byte-identical
   transcript), script round-tripping, a clean soak, and the oracle's teeth —
   a deliberately broken checker (one flipped digest byte in the incremental
   cache) must fail within one campaign and shrink to a replayable scenario. *)

module Event = Mc_simtest.Event
module Gen = Mc_simtest.Gen
module Runner = Mc_simtest.Runner

let test_determinism () =
  let sc = Gen.scenario ~seed:7L ~steps:25 in
  let a = Runner.run sc in
  let b = Runner.run sc in
  Alcotest.(check string) "same scenario, same transcript" a.Runner.r_transcript
    b.Runner.r_transcript;
  let sc' = Gen.scenario ~seed:7L ~steps:25 in
  Alcotest.(check string) "same seed, same script"
    (Event.scenario_to_script sc)
    (Event.scenario_to_script sc')

let test_campaigns_deterministic () =
  let run () =
    Mc_simtest.run_campaigns ~seed:42L ~steps:20 ~campaigns:2 ()
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "campaign transcripts identical"
    a.Mc_simtest.cr_transcript b.Mc_simtest.cr_transcript;
  Alcotest.(check int) "no failures" 0 (List.length a.Mc_simtest.cr_failures)

let test_script_roundtrip () =
  let sc = Gen.scenario ~seed:12345L ~steps:40 in
  let script = Event.scenario_to_script sc in
  match Event.scenario_of_script script with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok sc' ->
      Alcotest.(check string) "script round-trips" script
        (Event.scenario_to_script sc')

let test_clean_soak () =
  let r = Mc_simtest.run_campaigns ~seed:100L ~steps:30 ~campaigns:3 () in
  (match r.Mc_simtest.cr_failures with
  | [] -> ()
  | cf :: _ -> Alcotest.failf "clean soak failed:\n%s" (Mc_simtest.render_failure cf));
  Alcotest.(check int) "all campaigns ran" 3 r.Mc_simtest.cr_campaigns;
  Alcotest.(check bool) "events were applied" true (r.Mc_simtest.cr_applied > 0)

(* An infection makes the incremental survey's prints disagree inside the
   cohort, so it escalates by print class (fresh fetches of one copy per
   class) and must still pass the incremental/full parity check against
   the paper's pairwise survey. *)
let test_infection_runs_class_escalation () =
  let func =
    (Mc_pe.Catalog.image "hal.dll").Mc_pe.Catalog.built_source
      .Mc_pe.Catalog.funcs.(0)
      .Mc_pe.Catalog.fn_name
  in
  let sc =
    {
      Event.sc_vms = 5;
      sc_cores = 4;
      sc_cloud_seed = 9L;
      sc_watch = [ "hal.dll" ];
      sc_events =
        [
          Event.Infect
            { family = Event.Hook; vm = 2; module_name = "hal.dll"; func };
          Event.Sweep;
        ];
    }
  in
  let module Tel = Mc_telemetry.Registry in
  let was_enabled = Tel.enabled () in
  Tel.set_enabled true;
  let r = Runner.run sc in
  let reps =
    Option.value ~default:0
      (List.assoc_opt "survey.escalation_reps"
         (Tel.snapshot ()).Tel.snap_counters)
  in
  Tel.set_enabled was_enabled;
  (match r.Runner.r_failure with
  | None -> ()
  | Some f -> Alcotest.failf "step %d: %s" f.Runner.f_step f.Runner.f_reason);
  Alcotest.(check int) "both events applied" 2 r.Runner.r_applied;
  Alcotest.(check bool)
    (Printf.sprintf "class escalation ran (%d representatives)" reps)
    true (reps > 0)

let test_broken_checker_caught () =
  let r =
    Mc_simtest.run_campaigns ~break_checker:true ~shrink_budget:150 ~seed:42L
      ~steps:40 ~campaigns:1 ()
  in
  match r.Mc_simtest.cr_failures with
  | [] ->
      Alcotest.fail
        "a checker with a flipped cached digest byte passed the oracle"
  | cf :: _ ->
      (* Shrinking terminated within budget and preserved the failure. *)
      Alcotest.(check bool) "shrink ran within budget" true
        (cf.Mc_simtest.cf_shrink_runs <= 150);
      let shrunk = cf.Mc_simtest.cf_shrunk in
      Alcotest.(check bool) "shrunk scenario is no larger" true
        (List.length shrunk.Event.sc_events
        <= List.length
             (Gen.scenario ~seed:cf.Mc_simtest.cf_seed ~steps:40).Event.sc_events);
      let replayed = Mc_simtest.replay ~break_checker:true shrunk in
      (match replayed.Runner.r_failure with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk scenario no longer fails");
      (* The rendered script replays to the same failure. *)
      (match Event.scenario_of_script (Event.scenario_to_script shrunk) with
      | Error e -> Alcotest.failf "shrunk script does not parse: %s" e
      | Ok sc' -> (
          match
            (Mc_simtest.replay ~break_checker:true sc').Runner.r_failure
          with
          | Some _ -> ()
          | None -> Alcotest.fail "parsed shrunk script no longer fails"))

let test_coverage_accounting_names_starved_classes () =
  (* A soak too small to exercise everything must say so: the required
     classes it never fired land in [cr_starved] by name, and the ones
     it did fire are accounted in [cr_coverage]. *)
  let r =
    Mc_simtest.run_campaigns ~require_coverage:Gen.weighted_classes ~seed:100L
      ~steps:3 ~campaigns:1 ()
  in
  Alcotest.(check bool) "a 3-step campaign starves most classes" true
    (r.Mc_simtest.cr_starved <> []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " is a real generator class")
        true
        (List.mem k Gen.weighted_classes);
      Alcotest.(check bool)
        (k ^ " is absent from the coverage table")
        false
        (List.mem_assoc k r.Mc_simtest.cr_coverage))
    r.Mc_simtest.cr_starved;
  (* A class outside the generator's universe can never fire. *)
  let r' =
    Mc_simtest.run_campaigns ~require_coverage:[ "evade.quantum" ] ~seed:100L
      ~steps:5 ~campaigns:1 ()
  in
  Alcotest.(check (list string))
    "impossible class reported by name" [ "evade.quantum" ]
    r'.Mc_simtest.cr_starved

let test_evasion_soak_covers_all_strategies () =
  (* The acceptance soak: 20 campaigns x 10 steps fires all four
     adversary strategies with zero oracle divergences, and the whole
     run is byte-for-byte reproducible. *)
  let required =
    [ "evade.toctou"; "evade.pager"; "evade.race"; "evade.tamper" ]
  in
  let run () =
    Mc_simtest.run_campaigns ~require_coverage:required ~seed:2100L ~steps:10
      ~campaigns:20 ()
  in
  let r = run () in
  (match r.Mc_simtest.cr_failures with
  | [] -> ()
  | cf :: _ ->
      Alcotest.failf "evasion soak failed:\n%s" (Mc_simtest.render_failure cf));
  Alcotest.(check (list string)) "every strategy fired" [] r.Mc_simtest.cr_starved;
  Alcotest.(check string) "transcripts byte-identical" r.Mc_simtest.cr_transcript
    (run ()).Mc_simtest.cr_transcript

let test_failing_evasion_campaign_shrinks_small () =
  (* ddmin over a 200-event campaign whose timeline includes live
     adversaries: the failure must reduce to a handful of events and
     still fail, with the evade event surviving the cut when it is
     load-bearing. *)
  let sc = Gen.scenario ~seed:3001L ~steps:200 in
  Alcotest.(check bool) "the campaign contains adversaries" true
    (List.exists
       (function Event.Evade _ -> true | _ -> false)
       sc.Event.sc_events);
  let r =
    Mc_simtest.run_campaigns ~break_checker:true ~shrink_budget:400 ~seed:3001L
      ~steps:200 ~campaigns:1 ()
  in
  match r.Mc_simtest.cr_failures with
  | [] -> Alcotest.fail "broken checker survived an evasion campaign"
  | cf :: _ ->
      let shrunk = cf.Mc_simtest.cf_shrunk in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d event(s), wanted <= 10"
           (List.length shrunk.Event.sc_events))
        true
        (List.length shrunk.Event.sc_events <= 10);
      (match
         (Mc_simtest.replay ~break_checker:true shrunk).Runner.r_failure
       with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk evasion scenario no longer fails")

let () =
  Alcotest.run "simtest"
    [
      ( "simtest",
        [
          Alcotest.test_case "same seed, same transcript" `Quick
            test_determinism;
          Alcotest.test_case "campaign runs are deterministic" `Quick
            test_campaigns_deterministic;
          Alcotest.test_case "scripts round-trip" `Quick test_script_roundtrip;
          Alcotest.test_case "clean campaigns pass the oracle" `Quick
            test_clean_soak;
          Alcotest.test_case "infection runs the class escalation" `Quick
            test_infection_runs_class_escalation;
          Alcotest.test_case "broken checker is caught and shrunk" `Quick
            test_broken_checker_caught;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "starved classes are named" `Quick
            test_coverage_accounting_names_starved_classes;
          Alcotest.test_case "evasion soak covers all strategies" `Slow
            test_evasion_soak_covers_all_strategies;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "failing evasion campaign shrinks small" `Quick
            test_failing_evasion_campaign_shrinks_small;
        ] );
    ]
