(* Tests for the experiment harness: detection scenarios, figure shapes,
   ablations, and rendering. Uses small clouds to stay fast, except
   where a figure's floor is asserted at its default size. *)

module Scenario = Mc_harness.Scenario
module Figures = Mc_harness.Figures
module Render = Mc_harness.Render
module Stats = Mc_util.Stats

let check = Alcotest.check

let vms = 5

let get = function Ok d -> d | Error e -> Alcotest.fail e

let assert_detection name (d : Scenario.detection) =
  Alcotest.(check bool) (name ^ " detected") true d.detected;
  Alcotest.(check bool) (name ^ " exact flags") true d.flags_exact;
  Alcotest.(check bool) (name ^ " clean control VM") true d.clean_vm_ok

let test_exp1 () = assert_detection "E1" (get (Scenario.exp1_single_opcode ~vms ()))

let test_exp2 () = assert_detection "E2" (get (Scenario.exp2_inline_hook ~vms ()))

let test_exp3 () =
  assert_detection "E3" (get (Scenario.exp3_stub_modification ~vms ()))

let test_exp4 () = assert_detection "E4" (get (Scenario.exp4_dll_injection ~vms ()))

let test_dkom () = assert_detection "X-DKOM" (get (Scenario.ext_dkom_hiding ~vms ()))

let test_pointer_hook () =
  assert_detection "X-PTR" (get (Scenario.ext_pointer_hook ~vms ()))

let test_run_all () =
  let results = Scenario.run_all ~vms () in
  check Alcotest.int "six experiments" 6 (List.length results);
  List.iter (fun r -> assert_detection "suite" (get r)) results

let test_detection_seeds () =
  (* Detection is robust to the cloud's randomization seed. *)
  List.iter
    (fun seed ->
      assert_detection
        (Printf.sprintf "E1 seed %Ld" seed)
        (get (Scenario.exp1_single_opcode ~vms ~seed ())))
    [ 1L; 999L; 424242L ]

(* --- figures --------------------------------------------------------------- *)

let totals points =
  List.map
    (fun (p : Figures.fig_point) -> (float_of_int p.n_vms, p.total_ms))
    points

let test_fig7_linear () =
  let points = Figures.fig7_idle ~max_vms:8 ~cores:8 () in
  check Alcotest.int "8 points" 8 (List.length points);
  (* Strictly increasing... *)
  let rec increasing = function
    | (a : Figures.fig_point) :: (b :: _ as rest) ->
        a.total_ms < b.total_ms && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotonic" true (increasing points);
  (* ...and very close to linear. *)
  let r2 = Stats.r_squared (totals points) in
  Alcotest.(check bool) (Printf.sprintf "linear (r^2=%.4f)" r2) true (r2 > 0.995);
  (* Module-Searcher dominates, as §V-C.1 observes. *)
  List.iter
    (fun (p : Figures.fig_point) ->
      Alcotest.(check bool) "searcher > parser" true
        (p.searcher_ms > p.parser_ms);
      Alcotest.(check bool) "searcher largest" true
        (p.searcher_ms > p.checker_ms))
    points

let test_fig8_nonlinear_knee () =
  let cores = 4 in
  let points = Figures.fig8_loaded ~max_vms:10 ~cores () in
  let t n =
    (List.find (fun (p : Figures.fig_point) -> p.n_vms = n) points).total_ms
  in
  (* Increment per VM after the knee exceeds the increment before it. *)
  let before = (t 3 -. t 1) /. 2.0 in
  let after = (t 10 -. t 8) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "superlinear after knee (%.2f -> %.2f ms/VM)" before after)
    true (after > before *. 1.3)

let test_fig8_slower_than_fig7 () =
  let f7 = Figures.fig7_idle ~max_vms:6 ~cores:8 () in
  let f8 = Figures.fig8_loaded ~max_vms:6 ~cores:8 () in
  List.iter2
    (fun (a : Figures.fig_point) (b : Figures.fig_point) ->
      Alcotest.(check bool) "loaded slower than idle" true
        (b.total_ms > a.total_ms))
    f7 f8

let test_fig9 () =
  let r = Figures.fig9_guest_impact () in
  Alcotest.(check bool) "many samples" true (List.length r.samples > 100);
  Alcotest.(check bool)
    (Printf.sprintf "negligible perturbation (%.3f pp)" r.perturbation_pct)
    true
    (r.perturbation_pct < 1.0)

let test_alignment_ablation () =
  let rows = Figures.alignment_ablation ~trials:5 () in
  check Alcotest.int "two alignments" 2 (List.length rows);
  List.iter
    (fun (r : Figures.ablation_row) ->
      check Alcotest.int
        (Printf.sprintf "heuristic exact at 0x%x" r.alignment)
        r.trials r.heuristic_ok;
      check Alcotest.int
        (Printf.sprintf "reloc-guided exact at 0x%x" r.alignment)
        r.trials r.exact_ok)
    rows

let test_cross_pointer_ablation () =
  let rows = Figures.cross_pointer_ablation ~trials:5 () in
  (match rows with
  | zero :: rest ->
      check Alcotest.int "0 pointers: heuristic clean" zero.Figures.cp_trials
        zero.Figures.heuristic_clean;
      List.iter
        (fun (r : Figures.cross_pointer_row) ->
          check Alcotest.int
            (Printf.sprintf "%d pointers break the heuristic" r.cross_pointers)
            0 r.heuristic_clean;
          check Alcotest.int "and the exact adjuster" 0 r.exact_clean;
          Alcotest.(check bool) "residual grows" true (r.mean_residual > 0.0))
        rest
  | [] -> Alcotest.fail "no rows")

let test_parallel_sweep () =
  let rows = Figures.parallel_sweep ~vms:8 () in
  (match rows with
  | first :: _ ->
      check Alcotest.int "starts at 1 worker" 1 first.Figures.workers;
      check (Alcotest.float 1e-9) "baseline speedup" 1.0 first.Figures.speedup
  | [] -> Alcotest.fail "no rows");
  let rec improving = function
    | (a : Figures.parallel_row) :: (b :: _ as rest) ->
        b.speedup > a.speedup && improving rest
    | _ -> true
  in
  Alcotest.(check bool) "speedup increases with workers" true (improving rows)

let test_baseline_table () =
  let rows = Figures.baseline_table ~vms:4 () in
  check Alcotest.int "four scenarios" 4 (List.length rows);
  let row name =
    List.find (fun (r : Figures.baseline_row) -> r.scenario = name) rows
  in
  let r1 = row "memory-only inline hook" in
  Alcotest.(check bool) "svv detects hook" true (r1.svv = Figures.Detected);
  Alcotest.(check bool) "hashdb misses hook" true (r1.hashdb = Figures.Missed);
  Alcotest.(check bool) "modchecker detects hook" true
    (r1.modchecker = Figures.Detected);
  let r2 = row "disk-then-load opcode patch" in
  Alcotest.(check bool) "svv misses disk infection" true (r2.svv = Figures.Missed);
  Alcotest.(check bool) "hashdb detects disk infection" true
    (r2.hashdb = Figures.Detected);
  let r3 = row "legitimate update, all VMs" in
  Alcotest.(check bool) "modchecker clean on update" true
    (r3.modchecker = Figures.Clean);
  Alcotest.(check bool) "hashdb false alarm" true (r3.hashdb = Figures.False_alarm);
  let r4 = row "identical infection, all VMs" in
  Alcotest.(check bool) "modchecker blind spot" true (r4.modchecker = Figures.Missed)

let test_strategy_table () =
  let rows = Figures.survey_strategy_table ~vms:5 () in
  check Alcotest.int "four rows" 4 (List.length rows);
  (* Pairwise and prints agree on deviants, and prints hash less. *)
  let rec pairs = function
    | p :: c :: rest -> (p, c) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun ((p : Figures.strategy_row), (c : Figures.strategy_row)) ->
      check Alcotest.(list int) "same deviants" p.st_deviants c.st_deviants;
      Alcotest.(check bool) "prints cheaper" true
        (c.st_bytes_hashed < p.st_bytes_hashed))
    (pairs rows);
  (* The hal.dll rows see the staged infection. *)
  (match List.rev rows with
  | (hal_prints : Figures.strategy_row) :: _ ->
      Alcotest.(check bool) "infection visible" true
        (hal_prints.st_deviants <> [])
  | [] -> Alcotest.fail "no rows")

let test_patrol_tradeoff () =
  let rows = Figures.patrol_tradeoff ~vms:4 () in
  check Alcotest.int "four intervals" 4 (List.length rows);
  List.iter
    (fun (r : Figures.patrol_row) ->
      Alcotest.(check bool) "detected" true (Float.is_finite r.pt_ttd_s);
      Alcotest.(check bool) "ttd bounded by interval + sweep" true
        (r.pt_ttd_s >= 0.0 && r.pt_ttd_s <= r.pt_interval_s +. 1.0);
      Alcotest.(check bool) "duty positive" true (r.pt_cpu_duty_pct > 0.0))
    rows;
  (* Duty falls as the interval grows. *)
  let duties = List.map (fun (r : Figures.patrol_row) -> r.pt_cpu_duty_pct) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "duty decreases with interval" true (decreasing duties)

(* X13's floor: with one .text page dirtied per VM, the steady sweep
   must cost at least 5x less than the sweep that built the prints. *)
let test_merkle_dirty_sweep () =
  let rows = Figures.merkle_dirty_sweep () in
  match List.find_opt (fun (r : Figures.merkle_row) -> r.mk_dirty = 1) rows with
  | Some one ->
      Alcotest.(check bool)
        (Printf.sprintf "1-dirty-page speedup %.1fx >= 5x" one.mk_speedup)
        true (one.mk_speedup >= 5.0)
  | None -> Alcotest.fail "no 1-dirty-page row"

(* X15's floors at the default 2,000 requests per row: four shards
   serve at least twice the virtual requests/s of one, and every row's
   ledger chain verifies. *)
let test_replay_throughput () =
  let rows = Figures.replay_throughput () in
  let rps n =
    (List.find (fun (r : Figures.replay_row) -> r.rp_shards = n) rows).rp_rps
  in
  let scale = rps 4 /. rps 1 in
  Alcotest.(check bool)
    (Printf.sprintf "1->4 shard scaling %.2fx >= 2x" scale)
    true (scale >= 2.0);
  List.iter
    (fun (r : Figures.replay_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-shard ledger verifies" r.rp_shards)
        true r.rp_ledger_ok)
    rows

(* --- rendering --------------------------------------------------------------- *)

let test_renderers_produce_tables () =
  let nonempty name s =
    Alcotest.(check bool) (name ^ " renders") true (String.length s > 50)
  in
  nonempty "detection"
    (Render.detection_table [ Scenario.exp1_single_opcode ~vms:3 () ]);
  nonempty "fig series"
    (Render.fig_series ~title:"t" (Figures.fig7_idle ~max_vms:2 ()));
  nonempty "fig9" (Render.fig9 (Figures.fig9_guest_impact ()));
  nonempty "ablation" (Render.ablation_table (Figures.alignment_ablation ~trials:2 ()));
  nonempty "cross pointer"
    (Render.cross_pointer_table (Figures.cross_pointer_ablation ~trials:2 ()));
  nonempty "parallel" (Render.parallel_table (Figures.parallel_sweep ~vms:3 ()));
  nonempty "error row" (Render.detection_table [ Error "boom" ]);
  nonempty "strategy"
    (Render.strategy_table (Figures.survey_strategy_table ~vms:3 ()));
  nonempty "patrol" (Render.patrol_table (Figures.patrol_tradeoff ~vms:3 ()))

let () =
  Alcotest.run "harness"
    [
      ( "detection",
        [
          Alcotest.test_case "E1" `Quick test_exp1;
          Alcotest.test_case "E2" `Quick test_exp2;
          Alcotest.test_case "E3" `Quick test_exp3;
          Alcotest.test_case "E4" `Quick test_exp4;
          Alcotest.test_case "X-DKOM" `Quick test_dkom;
          Alcotest.test_case "X-PTR" `Quick test_pointer_hook;
          Alcotest.test_case "run_all" `Slow test_run_all;
          Alcotest.test_case "seed robustness" `Slow test_detection_seeds;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7 linear" `Quick test_fig7_linear;
          Alcotest.test_case "fig8 knee" `Quick test_fig8_nonlinear_knee;
          Alcotest.test_case "loaded > idle" `Quick test_fig8_slower_than_fig7;
          Alcotest.test_case "fig9" `Quick test_fig9;
          Alcotest.test_case "alignment ablation" `Quick test_alignment_ablation;
          Alcotest.test_case "cross-pointer ablation" `Quick
            test_cross_pointer_ablation;
          Alcotest.test_case "parallel sweep" `Quick test_parallel_sweep;
          Alcotest.test_case "baseline table" `Slow test_baseline_table;
          Alcotest.test_case "strategy table" `Quick test_strategy_table;
          Alcotest.test_case "patrol tradeoff" `Slow test_patrol_tradeoff;
          Alcotest.test_case "merkle dirty sweep" `Quick test_merkle_dirty_sweep;
          Alcotest.test_case "replay throughput" `Quick test_replay_throughput;
        ] );
      ( "render",
        [ Alcotest.test_case "tables" `Quick test_renderers_produce_tables ] );
    ]
