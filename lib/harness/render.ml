module Table = Mc_util.Table
module Monitor = Mc_workload.Monitor

let yn b = if b then "yes" else "NO"

let detection_table results =
  let rows =
    List.map
      (fun r ->
        match r with
        | Error e -> [ "?"; "error"; e; ""; ""; ""; ""; ""; "" ]
        | Ok (d : Scenario.detection) ->
            [
              d.exp_id;
              d.technique;
              d.infected_module;
              Printf.sprintf "Dom%d" (d.target_vm + 1);
              String.concat " " d.expected_flags;
              String.concat " " d.observed_flags;
              yn d.detected;
              yn (d.flags_exact && d.clean_vm_ok);
              (if d.degraded then "DEGRADED" else "no");
            ])
      results
  in
  Table.render
    ~header:
      [
        "exp"; "technique"; "module"; "victim"; "expected flags";
        "observed flags"; "detected"; "exact+clean"; "degraded";
      ]
    rows

let fig_series ~title points =
  let rows =
    List.map
      (fun (p : Figures.fig_point) ->
        [
          string_of_int p.n_vms;
          Printf.sprintf "%.2f" p.searcher_ms;
          Printf.sprintf "%.2f" p.parser_ms;
          Printf.sprintf "%.2f" p.checker_ms;
          Printf.sprintf "%.2f" p.total_ms;
        ])
      points
  in
  let table =
    Table.render
      ~header:
        [ "#VMs"; "searcher (ms)"; "parser (ms)"; "checker (ms)"; "total (ms)" ]
      rows
  in
  let series name f =
    (name, List.map (fun (p : Figures.fig_point) -> (float_of_int p.n_vms, f p)) points)
  in
  let chart =
    Table.chart ~title ~x_label:"number of VMs" ~y_label:"runtime (ms)"
      [
        series "total" (fun p -> p.total_ms);
        series "Module-Searcher" (fun p -> p.searcher_ms);
        series "Integrity-Checker" (fun p -> p.checker_ms);
        series "Module-Parser" (fun p -> p.parser_ms);
      ]
  in
  title ^ "\n" ^ table ^ chart

let fig9 (r : Figures.fig9_result) =
  let in_window ts = List.exists (fun (lo, hi) -> ts >= lo && ts < hi) r.windows in
  let rows =
    List.filter_map
      (fun (s : Monitor.sample) ->
        (* Print one row per 2 seconds to keep the table readable. *)
        if Float.rem s.ts 2.0 <> 0.0 then None
        else
          Some
            [
              Printf.sprintf "%.0f" s.ts;
              Printf.sprintf "%.1f" s.cpu_idle_pct;
              Printf.sprintf "%.1f" s.cpu_user_pct;
              Printf.sprintf "%.1f" s.cpu_privileged_pct;
              Printf.sprintf "%.1f" s.free_phys_mem_pct;
              Printf.sprintf "%.0f" s.page_faults_per_s;
              (if in_window s.ts then "<== VMI" else "");
            ])
      r.samples
  in
  let table =
    Table.render
      ~header:
        [
          "t (s)"; "cpu idle %"; "user %"; "privileged %"; "free mem %";
          "page faults/s"; "introspection";
        ]
      rows
  in
  let chart =
    Table.chart ~title:"Fig 9: guest CPU busy % (boxes = VMI windows)"
      ~x_label:"time (s)" ~y_label:"cpu busy %"
      [
        ( "cpu busy",
          List.map
            (fun (s : Monitor.sample) ->
              (s.ts, s.cpu_user_pct +. s.cpu_privileged_pct))
            r.samples );
        ( "VMI window marker",
          List.concat_map
            (fun (lo, hi) -> [ (lo, 0.0); (hi, 0.0) ])
            r.windows );
      ]
  in
  Printf.sprintf
    "%s%s\nperturbation during introspection: %.3f percentage points of CPU \
     busy (paper: no significant perturbation)\n"
    table chart r.perturbation_pct

let ablation_table rows =
  Table.render
    ~header:
      [
        "base alignment"; "trials"; "Algorithm 2 exact"; "reloc-guided exact";
        "mean residual diff bytes";
      ]
    (List.map
       (fun (r : Figures.ablation_row) ->
         [
           Printf.sprintf "0x%x" r.alignment;
           string_of_int r.trials;
           Printf.sprintf "%d/%d" r.heuristic_ok r.trials;
           Printf.sprintf "%d/%d" r.exact_ok r.trials;
           Printf.sprintf "%.1f" r.mean_residual_diffs;
         ])
       rows)

let cross_pointer_table rows =
  Table.render
    ~header:
      [
        "cross-module pointers"; "trials"; "Algorithm 2 clean";
        "reloc-guided clean"; "mean residual diff bytes";
      ]
    (List.map
       (fun (r : Figures.cross_pointer_row) ->
         [
           string_of_int r.cross_pointers;
           string_of_int r.cp_trials;
           Printf.sprintf "%d/%d" r.heuristic_clean r.cp_trials;
           Printf.sprintf "%d/%d" r.exact_clean r.cp_trials;
           Printf.sprintf "%.1f" r.mean_residual;
         ])
       rows)

let parallel_table rows =
  Table.render
    ~header:[ "Dom0 workers"; "wall (ms)"; "speedup" ]
    (List.map
       (fun (r : Figures.parallel_row) ->
         [
           string_of_int r.workers;
           Printf.sprintf "%.2f" r.wall_ms;
           Printf.sprintf "%.2fx" r.speedup;
         ])
       rows)

let incremental_table rows =
  Table.render
    ~header:
      [ "VMs"; "full sweep (ms)"; "incr 1st (ms)"; "incr steady (ms)";
        "speedup" ]
    (List.map
       (fun (r : Figures.incremental_row) ->
         [
           string_of_int r.ir_vms;
           Printf.sprintf "%.2f" (r.ir_full_sweep_s *. 1000.0);
           Printf.sprintf "%.2f" (r.ir_first_sweep_s *. 1000.0);
           Printf.sprintf "%.2f" (r.ir_steady_sweep_s *. 1000.0);
           Printf.sprintf "%.1fx" r.ir_speedup;
         ])
       rows)

let merkle_table rows =
  Table.render
    ~header:
      [ "dirty/VM"; "build sweep (ms)"; "merkle sweep (ms)"; "leaves";
        "interior"; "speedup" ]
    (List.map
       (fun (r : Figures.merkle_row) ->
         [
           string_of_int r.mk_dirty;
           Printf.sprintf "%.2f" (r.mk_build_s *. 1000.0);
           Printf.sprintf "%.2f" (r.mk_merkle_s *. 1000.0);
           string_of_int r.mk_leaves;
           string_of_int r.mk_nodes;
           Printf.sprintf "%.1fx" r.mk_speedup;
         ])
       rows)

let strategy_table rows =
  Table.render
    ~header:
      [ "strategy (module)"; "bytes hashed"; "bytes scanned";
        "checker CPU (ms)"; "deviants" ]
    (List.map
       (fun (r : Figures.strategy_row) ->
         [
           r.st_name;
           string_of_int r.st_bytes_hashed;
           string_of_int r.st_bytes_scanned;
           Printf.sprintf "%.2f" r.st_checker_ms;
           (if r.st_deviants = [] then "(none)"
            else
              String.concat ","
                (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) r.st_deviants));
         ])
       rows)

let patrol_table rows =
  Table.render
    ~header:
      [ "sweep interval (s)"; "time to detect (s)"; "sweeps";
        "Dom0 CPU duty (%)" ]
    (List.map
       (fun (r : Figures.patrol_row) ->
         [
           Printf.sprintf "%.0f" r.pt_interval_s;
           Printf.sprintf "%.1f" r.pt_ttd_s;
           string_of_int r.pt_sweeps;
           Printf.sprintf "%.3f" r.pt_cpu_duty_pct;
         ])
       rows)

let events_table rows =
  Table.render
    ~header:
      [ "mode"; "steady CPU (s / 600s idle)"; "time to detect (s)"; "checks" ]
    (List.map
       (fun (r : Figures.events_row) ->
         [
           r.ev_label;
           Printf.sprintf "%.4f" r.ev_steady_cpu_s;
           Printf.sprintf "%.3f" r.ev_ttd_s;
           string_of_int r.ev_checks;
         ])
       rows)

let fault_table rows =
  Table.render
    ~header:
      [ "transient rate"; "detected"; "exact+clean"; "degraded"; "errors";
        "retries"; "aborts" ]
    (List.map
       (fun (r : Figures.fault_row) ->
         [
           Printf.sprintf "%.0f%%" (r.fl_transient *. 100.0);
           Printf.sprintf "%d/%d" r.fl_detected r.fl_scenarios;
           Printf.sprintf "%d/%d" r.fl_exact r.fl_scenarios;
           string_of_int r.fl_degraded;
           string_of_int r.fl_errors;
           string_of_int r.fl_retries;
           string_of_int r.fl_aborts;
         ])
       rows)

let baseline_table rows =
  Table.render
    ~header:[ "scenario"; "SVV"; "hash DB"; "LKIM"; "ModChecker" ]
    (List.map
       (fun (r : Figures.baseline_row) ->
         [
           r.scenario;
           Figures.baseline_cell_string r.svv;
           Figures.baseline_cell_string r.hashdb;
           Figures.baseline_cell_string r.lkim;
           Figures.baseline_cell_string r.modchecker;
         ])
       rows)

let engine_table rows =
  Table.render
    ~header:
      [ "dup"; "requests"; "standalone (ms)"; "engine (ms)"; "coalesced";
        "speedup" ]
    (List.map
       (fun (r : Figures.engine_row) ->
         [
           string_of_int r.er_dup;
           string_of_int r.er_requests;
           Printf.sprintf "%.2f" (r.er_standalone_s *. 1000.0);
           Printf.sprintf "%.2f" (r.er_engine_s *. 1000.0);
           string_of_int r.er_coalesced;
           Printf.sprintf "%.1fx" r.er_speedup;
         ])
       rows)

let federation_table rows =
  Table.render
    ~header:
      [ "hosts"; "racks"; "VMs"; "builds"; "detected"; "skew FP"; "parity";
        "fleet cpu (s)"; "critical (s)" ]
    (List.map
       (fun (r : Figures.federation_row) ->
         [
           string_of_int r.fd_hosts;
           string_of_int r.fd_racks;
           string_of_int r.fd_vms;
           string_of_int r.fd_levels;
           (if r.fd_detected then "yes" else "NO");
           string_of_int r.fd_skew_fp;
           (if r.fd_parity then "yes" else "NO");
           Printf.sprintf "%.3f" r.fd_fleet_cpu_s;
           Printf.sprintf "%.3f" r.fd_critical_s;
         ])
       rows)

let replay_table rows =
  Table.render
    ~header:
      [ "shards"; "requests"; "coalesced"; "busy"; "retries";
        "critical (s)"; "total (s)"; "req/s (virt)"; "speedup"; "ledger" ]
    (List.map
       (fun (r : Figures.replay_row) ->
         [
           string_of_int r.rp_shards;
           string_of_int r.rp_requests;
           string_of_int r.rp_coalesced;
           string_of_int r.rp_busy;
           string_of_int r.rp_retries;
           Printf.sprintf "%.3f" r.rp_critical_s;
           Printf.sprintf "%.3f" r.rp_total_s;
           Printf.sprintf "%.0f" r.rp_rps;
           Printf.sprintf "%.2fx" r.rp_speedup;
           (if r.rp_ledger_ok then "verified" else "FAILED");
         ])
       rows)

let evasion_table rows =
  Table.render
    ~header:
      [ "mode"; "detection probability"; "mean time to detect (s)"; "trials" ]
    (List.map
       (fun (r : Figures.evasion_row) ->
         [
           r.ez_label;
           Printf.sprintf "%.3f" r.ez_detect_p;
           Printf.sprintf "%.3f" r.ez_mean_ttd_s;
           string_of_int r.ez_trials;
         ])
       rows)
