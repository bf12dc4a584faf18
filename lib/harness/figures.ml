module Cloud = Mc_hypervisor.Cloud
module Costs = Mc_hypervisor.Costs
module Sched = Mc_hypervisor.Sched
module Meter = Mc_hypervisor.Meter
module Stress = Mc_workload.Stress
module Monitor = Mc_workload.Monitor
module Orchestrator = Modchecker.Orchestrator
module Rva = Modchecker.Rva
module Parser = Modchecker.Parser
module Checker = Modchecker.Checker
module Loader = Mc_winkernel.Loader
module Catalog = Mc_pe.Catalog
module Md5 = Mc_md5.Md5
module Rng = Mc_util.Rng
module Infect = Mc_malware.Infect
module Pool = Mc_parallel.Pool

type fig_point = {
  n_vms : int;
  searcher_ms : float;
  parser_ms : float;
  checker_ms : float;
  total_ms : float;
}

type phase_seconds = {
  searcher_s : float;
  parser_s : float;
  checker_s : float;
}

let phase_seconds costs (outcome : Orchestrator.outcome) =
  let sum phase =
    List.fold_left
      (fun acc (w : Orchestrator.vm_work) ->
        acc +. Meter.cpu_seconds costs (Meter.get w.work_meter phase))
      0.0 outcome.work
  in
  {
    searcher_s = sum Meter.Searcher;
    parser_s = sum Meter.Parser;
    checker_s = sum Meter.Checker;
  }

let per_vm_seconds costs (outcome : Orchestrator.outcome) =
  List.map
    (fun (w : Orchestrator.vm_work) ->
      Meter.total_cpu_seconds costs w.work_meter)
    outcome.work

let ms s = s *. 1000.0

(* One sweep point: run the real pipeline against [n] comparison VMs, then
   price and schedule the metered work. [busy_participants] marks whether
   the involved guests are stress-loaded (Fig. 8) or idle (Fig. 7). *)
let sweep_point ~costs ~cloud ~module_name ~n ~loaded ~workers =
  let others = List.init n (fun i -> i + 1) in
  let config = Orchestrator.Config.(default |> with_others others) in
  match
    Orchestrator.check_module ~config cloud ~target_vm:0 ~module_name
  with
  | Error e -> failwith ("Figures.sweep_point: " ^ e)
  | Ok outcome ->
      let busy_vcpus = if loaded then n + 1 else 0 in
      let bus =
        if loaded then
          Sched.bus_factor costs ~busy_vms:(n + 1) ~cores:cloud.Cloud.cores
        else 1.0
      in
      let jobs =
        List.map (fun s -> s *. bus) (per_vm_seconds costs outcome)
      in
      let wall =
        Sched.run_jobs ~cores:cloud.Cloud.cores ~busy_guest_vcpus:busy_vcpus
          ~workers jobs
      in
      let phases = phase_seconds costs outcome in
      let cpu_total =
        phases.searcher_s +. phases.parser_s +. phases.checker_s
      in
      (* Components stretch uniformly with the overall slowdown. *)
      let stretch = if cpu_total > 0.0 then wall /. cpu_total else 1.0 in
      {
        n_vms = n;
        searcher_ms = ms (phases.searcher_s *. stretch);
        parser_ms = ms (phases.parser_s *. stretch);
        checker_ms = ms (phases.checker_s *. stretch);
        total_ms = ms wall;
      }

let sweep ~max_vms ~cores ~module_name ~seed ~loaded =
  let costs = Costs.default in
  let cloud = Cloud.create ~vms:(max_vms + 1) ~cores ~seed () in
  if loaded then Cloud.set_workload_all cloud Stress.heavyload;
  List.init max_vms (fun i ->
      sweep_point ~costs ~cloud ~module_name ~n:(i + 1) ~loaded ~workers:1)

let fig7_idle ?(max_vms = 14) ?(cores = 8) ?(module_name = "http.sys")
    ?(seed = 2012L) () =
  sweep ~max_vms ~cores ~module_name ~seed ~loaded:false

let fig8_loaded ?(max_vms = 14) ?(cores = 8) ?(module_name = "http.sys")
    ?(seed = 2012L) () =
  sweep ~max_vms ~cores ~module_name ~seed ~loaded:true

type fig9_result = {
  samples : Monitor.sample list;
  windows : (float * float) list;
  perturbation_pct : float;
}

let fig9_guest_impact ?(seed = 42L) () =
  let windows = [ (20.0, 25.0); (40.0, 45.0) ] in
  let config = { Monitor.default_config with seed } in
  let samples =
    Monitor.run ~config ~stressed:false ~introspection_windows:windows ()
  in
  {
    samples;
    windows;
    perturbation_pct = Monitor.perturbation samples;
  }

type ablation_row = {
  alignment : int;
  trials : int;
  heuristic_ok : int;
  exact_ok : int;
  mean_residual_diffs : float;
}

let count_diffs a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let c = ref (abs (Bytes.length a - Bytes.length b)) in
  for i = 0 to n - 1 do
    if Bytes.get a i <> Bytes.get b i then incr c
  done;
  !c

let text_of_memory_image mem =
  match Parser.artifacts mem with
  | Error e -> failwith e
  | Ok artifacts -> (
      match
        Modchecker.Artifact.find artifacts (Modchecker.Artifact.Section_data ".text")
      with
      | Some a -> { a with Modchecker.Artifact.data = Bytes.copy a.data }
      | None -> failwith "no .text artifact")

(* The exact column: both copies stripped with the golden slot tables.
   [t1] and [t2] are private copies read nowhere else, so they are owned
   in place. *)
let canonical_equal ~slots (base1, t1) (base2, t2) =
  let stripped base t =
    match Checker.side_artifacts (Checker.own ~slots ~base [ t ]) with
    | [ ((a : Modchecker.Artifact.t), _) ] -> a.data
    | _ -> assert false
  in
  Bytes.equal (stripped base1 t1) (stripped base2 t2)

let alignment_trial rng ~file ~slots ~alignment =
  (* Two random driver-region bases at the given alignment. *)
  let region = Mc_winkernel.Layout.driver_region_start in
  let slot () = region + (Rng.int rng 0x4000 * alignment) in
  let base1 = slot () in
  let base2 =
    let rec distinct () =
      let b = slot () in
      if b = base1 then distinct () else b
    in
    distinct ()
  in
  let load base =
    match Loader.simulate_load file ~base with
    | Ok mem -> mem
    | Error e -> failwith (Loader.error_to_string e)
  in
  let mem1 = load base1 and mem2 = load base2 in
  let t1 = text_of_memory_image mem1 and t2 = text_of_memory_image mem2 in
  (* Heuristic (Algorithm 2). *)
  let h1 = Bytes.copy t1.data and h2 = Bytes.copy t2.data in
  ignore (Rva.adjust_pair ~base1 ~base2 h1 h2);
  let heuristic_ok = Bytes.equal h1 h2 in
  let residual = count_diffs h1 h2 in
  (heuristic_ok, canonical_equal ~slots (base1, t1) (base2, t2), residual)

let alignment_ablation ?(module_name = "http.sys") ?(trials = 40)
    ?(seed = 7L) () =
  let file = (Catalog.image module_name).Catalog.file in
  let slots = Orchestrator.slot_tables module_name in
  List.map
    (fun alignment ->
      let rng = Rng.create (Int64.add seed (Int64.of_int alignment)) in
      let heuristic_ok = ref 0 and exact_ok = ref 0 and residual = ref 0 in
      for _ = 1 to trials do
        let h, e, r = alignment_trial rng ~file ~slots ~alignment in
        if h then incr heuristic_ok;
        if e then incr exact_ok;
        residual := !residual + r
      done;
      {
        alignment;
        trials;
        heuristic_ok = !heuristic_ok;
        exact_ok = !exact_ok;
        mean_residual_diffs = float_of_int !residual /. float_of_int trials;
      })
    [ Mc_winkernel.Layout.default_module_alignment; 0x1000 ]

type cross_pointer_row = {
  cross_pointers : int;
  cp_trials : int;
  heuristic_clean : int;
  exact_clean : int;
  mean_residual : float;
}

(* Synthesize a section pair that is a faithful relocated clean pair, then
   plant [k] import-style slots whose values follow a *different* module's
   per-VM bases. *)
let cross_pointer_trial rng ~file ~slots ~cross_pointers =
  let alignment = Mc_winkernel.Layout.default_module_alignment in
  let region = Mc_winkernel.Layout.driver_region_start in
  let slot () = region + (Rng.int rng 0x4000 * alignment) in
  let base1 = slot () and base2 = slot () + alignment in
  let other1 = slot () and other2 = slot () + (2 * alignment) in
  let load base =
    match Loader.simulate_load file ~base with
    | Ok mem -> mem
    | Error e -> failwith (Loader.error_to_string e)
  in
  let t1 = text_of_memory_image (load base1)
  and t2 = text_of_memory_image (load base2) in
  let d1 = t1.data and d2 = t2.data in
  let len = Bytes.length d1 in
  (* Overwrite k aligned positions with bound import pointers: the same
     foreign RVA added to each VM's *other-module* base. *)
  for i = 0 to cross_pointers - 1 do
    let pos = 16 * (1 + Rng.int rng ((len / 16) - 2)) in
    let foreign_rva = Rng.int rng 0x8000 in
    Mc_util.Le.set_u32_int d1 pos (other1 + foreign_rva);
    Mc_util.Le.set_u32_int d2 pos (other2 + foreign_rva);
    ignore i
  done;
  let h1 = Bytes.copy d1 and h2 = Bytes.copy d2 in
  ignore (Rva.adjust_pair ~base1 ~base2 h1 h2);
  let heuristic_clean = Bytes.equal h1 h2 in
  let residual = count_diffs h1 h2 in
  (heuristic_clean, canonical_equal ~slots (base1, t1) (base2, t2), residual)

let cross_pointer_ablation ?(trials = 20) ?(seed = 11L) () =
  let file = (Catalog.image "http.sys").Catalog.file in
  let slots = Orchestrator.slot_tables "http.sys" in
  List.map
    (fun cross_pointers ->
      let rng = Rng.create (Int64.add seed (Int64.of_int cross_pointers)) in
      let heuristic_clean = ref 0 and exact_clean = ref 0 and residual = ref 0 in
      for _ = 1 to trials do
        let h, e, r = cross_pointer_trial rng ~file ~slots ~cross_pointers in
        if h then incr heuristic_clean;
        if e then incr exact_clean;
        residual := !residual + r
      done;
      {
        cross_pointers;
        cp_trials = trials;
        heuristic_clean = !heuristic_clean;
        exact_clean = !exact_clean;
        mean_residual = float_of_int !residual /. float_of_int trials;
      })
    [ 0; 1; 4; 16 ]

type parallel_row = { workers : int; wall_ms : float; speedup : float }

let parallel_sweep ?(vms = 15) ?(cores = 8) ?(module_name = "http.sys")
    ?(seed = 2012L) () =
  let costs = Costs.default in
  let cloud = Cloud.create ~vms ~cores ~seed () in
  let run workers =
    let mode =
      if workers = 1 then Orchestrator.Sequential
      else Orchestrator.Parallel (Pool.create workers)
    in
    let outcome =
      match
        Orchestrator.check_module
          ~config:Orchestrator.Config.(default |> with_mode mode)
          cloud ~target_vm:0 ~module_name
      with
      | Ok o -> o
      | Error e -> failwith e
    in
    (match mode with
    | Orchestrator.Parallel pool -> Pool.shutdown pool
    | Orchestrator.Sequential -> ());
    let jobs = per_vm_seconds costs outcome in
    Sched.run_jobs ~cores ~busy_guest_vcpus:0 ~workers jobs
  in
  let base_wall = run 1 in
  List.map
    (fun workers ->
      let wall = if workers = 1 then base_wall else run workers in
      { workers; wall_ms = ms wall; speedup = base_wall /. wall })
    [ 1; 2; 4; 8 ]

type strategy_row = {
  st_name : string;
  st_bytes_hashed : int;
  st_bytes_scanned : int;
  st_checker_ms : float;
  st_deviants : int list;
}

let survey_strategy_table ?(vms = 15) ?(seed = 2012L)
    ?(module_name = "http.sys") () =
  let cloud = Cloud.create ~vms ~seed () in
  (match Infect.inline_hook cloud ~vm:(min 4 (vms - 1)) with
  | Ok _ -> ()
  | Error e -> failwith e);
  (* The hook is in hal.dll; also survey the hooked module so the table
     shows an infected case. Each print survey starts from a fresh cache,
     so it builds every print once. *)
  let run name config label =
    let meter = Meter.create () in
    let s =
      Orchestrator.survey ~config:(config ()) ~meter cloud ~module_name:name
    in
    let c = Meter.get meter Meter.Checker in
    {
      st_name = Printf.sprintf "%s (%s)" label name;
      st_bytes_hashed = c.Meter.bytes_hashed;
      st_bytes_scanned = c.Meter.bytes_scanned;
      st_checker_ms = Meter.cpu_seconds Costs.default c *. 1000.0;
      st_deviants = s.Modchecker.Report.deviant_vms;
    }
  in
  let pairwise () = Orchestrator.Config.default in
  let prints () =
    Orchestrator.Config.(
      default |> with_incremental (Orchestrator.create_incremental ()))
  in
  [
    run module_name pairwise "pairwise";
    run module_name prints "prints";
    run "hal.dll" pairwise "pairwise";
    run "hal.dll" prints "prints";
  ]

type patrol_row = {
  pt_interval_s : float;
  pt_ttd_s : float;
  pt_sweeps : int;
  pt_cpu_duty_pct : float;
}

let patrol_tradeoff ?(vms = 6) ?(seed = 2012L) () =
  List.map
    (fun interval ->
      let cloud = Cloud.create ~vms ~seed () in
      let infect cloud =
        match Infect.inline_hook cloud ~vm:(min 2 (vms - 1)) with
        | Ok _ -> ()
        | Error e -> failwith e
      in
      let config =
        {
          Modchecker.Patrol.default_config with
          Modchecker.Patrol.watch = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ];
          interval_s = interval;
        }
      in
      let o =
        Modchecker.Patrol.run ~config ~events:[ (50.0, infect) ] cloud
          ~until:(50.0 +. (4.0 *. interval) +. 10.0)
      in
      let ttd =
        match
          Modchecker.Patrol.time_to_detect o ~module_name:"hal.dll"
            ~infected_at:50.0
        with
        | Some t -> t
        | None -> nan
      in
      {
        pt_interval_s = interval;
        pt_ttd_s = ttd;
        pt_sweeps = o.Modchecker.Patrol.sweeps;
        pt_cpu_duty_pct =
          100.0 *. o.Modchecker.Patrol.cpu_spent
          /. o.Modchecker.Patrol.virtual_elapsed;
      })
    [ 10.0; 30.0; 60.0; 120.0 ]

type events_row = {
  ev_label : string;
  ev_steady_cpu_s : float;
  ev_ttd_s : float;
  ev_checks : int;
}

(* X14: polling vs event-driven write-trap checking. Idle steady-state
   cost is the Dom0 CPU burned after the first (cache-filling) sweep
   over a 600 s quiet window: polling re-checks on every interval
   boundary regardless, traps cost nothing until a watched page is
   written. Detection latency is measured against the same inline hook
   landing at t=50 s — polling waits for the next boundary, the trap
   reaction starts at the write. *)
let events_tradeoff ?(vms = 6) ?(seed = 2012L) () =
  let watch = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ] in
  let config interval =
    {
      Modchecker.Patrol.default_config with
      Modchecker.Patrol.watch;
      interval_s = interval;
    }
  in
  let infect cloud =
    match Infect.inline_hook cloud ~vm:(min 2 (vms - 1)) with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let steady (o : Modchecker.Patrol.outcome) =
    match o.Modchecker.Patrol.sweep_cpus with
    | first :: _ -> o.Modchecker.Patrol.cpu_spent -. first
    | [] -> o.Modchecker.Patrol.cpu_spent
  in
  let row label ~detect_until ~trigger interval =
    let run cloud events until =
      Modchecker.Patrol.run ~config:(config interval) ~trigger ~events cloud
        ~until
    in
    let idle = run (Cloud.create ~vms ~seed ()) [] 600.0 in
    let cloud = Cloud.create ~vms ~seed () in
    let o = run cloud [ (50.0, infect) ] detect_until in
    let ttd =
      match
        Modchecker.Patrol.time_to_detect o ~module_name:"hal.dll"
          ~infected_at:50.0
      with
      | Some t -> t
      | None -> nan
    in
    {
      ev_label = label;
      ev_steady_cpu_s = steady idle;
      ev_ttd_s = ttd;
      ev_checks = o.Modchecker.Patrol.sweeps + o.Modchecker.Patrol.reactions;
    }
  in
  List.map
    (fun interval ->
      row
        (Printf.sprintf "poll %.0fs" interval)
        ~detect_until:(50.0 +. interval +. 20.0)
        ~trigger:Modchecker.Patrol.Poll interval)
    [ 10.0; 30.0; 60.0; 120.0 ]
  @ [
      row "event-driven" ~detect_until:300.0 ~trigger:Modchecker.Patrol.Traps
        30.0;
    ]

type incremental_row = {
  ir_vms : int;
  ir_full_sweep_s : float;
  ir_first_sweep_s : float;
  ir_steady_sweep_s : float;
  ir_speedup : float;
}

(* X8: full vs incremental patrol of an idle pool. The full sweep re-maps
   and re-parses every module on every VM each time and compares every
   pair, so its cost grows quadratically in pool size; the incremental
   steady state prices as per-VM staleness probes and stays near-flat. *)
let incremental_steady_state ?(pool_sizes = [ 2; 5; 10; 15 ]) ?(seed = 2012L)
    () =
  let watch = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ] in
  let sweep_cpus ~vms ~incremental =
    let cloud = Cloud.create ~vms ~seed () in
    let config =
      {
        Modchecker.Patrol.default_config with
        Modchecker.Patrol.watch;
        interval_s = 30.0;
        check = Orchestrator.Config.default;
        incremental;
      }
    in
    let o = Modchecker.Patrol.run ~config cloud ~until:149.0 in
    o.Modchecker.Patrol.sweep_cpus
  in
  let mean = function
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  List.map
    (fun vms ->
      let full = sweep_cpus ~vms ~incremental:false in
      let inc = sweep_cpus ~vms ~incremental:true in
      let full_steady = mean (List.tl full) in
      let inc_steady = mean (List.tl inc) in
      {
        ir_vms = vms;
        ir_full_sweep_s = full_steady;
        ir_first_sweep_s = List.hd inc;
        ir_steady_sweep_s = inc_steady;
        ir_speedup = full_steady /. inc_steady;
      })
    pool_sizes

type merkle_row = {
  mk_dirty : int;
  mk_build_s : float;
  mk_merkle_s : float;
  mk_leaves : int;
  mk_nodes : int;
  mk_speedup : float;
}

(* X13: steady-state sweep cost when every guest keeps dirtying k .text
   pages between sweeps without changing their content, against the
   sweep that built the prints (a full fetch + hash of every copy): the
   refresh re-reads and re-hashes only the touched leaves plus O(log n)
   interior nodes. *)
let merkle_dirty_sweep ?(vms = 6) ?(dirty = [ 0; 1; 2; 4; 8 ])
    ?(module_name = "http.sys") ?(seed = 2012L) () =
  let costs = Costs.default in
  let counter name =
    Mc_telemetry.Metric.counter_value (Mc_telemetry.Registry.counter name)
  in
  let was_enabled = Mc_telemetry.Registry.enabled () in
  Mc_telemetry.Registry.set_enabled true;
  let steady_sweep ~k =
    let cloud = Cloud.create ~vms ~seed () in
    let inc = Orchestrator.create_incremental () in
    let config = Orchestrator.Config.(default |> with_incremental inc) in
    (* The warm sweep builds the memoized prints. *)
    let build = Meter.create () in
    ignore (Orchestrator.survey ~config ~meter:build cloud ~module_name);
    (* The guests run on: k .text pages per VM move, content unchanged. *)
    for vm = 0 to vms - 1 do
      if k > 0 then
        match Infect.benign_touch ~module_name ~pages:k cloud ~vm with
        | Ok _ -> ()
        | Error e -> failwith ("Figures.merkle_dirty_sweep: " ^ e)
    done;
    let leaves0 = counter "merkle.leaves_rehashed" in
    let meter = Meter.create () in
    let s = Orchestrator.survey ~config ~meter cloud ~module_name in
    if s.Modchecker.Report.deviant_vms <> [] then
      failwith "Figures.merkle_dirty_sweep: benign touch flagged as deviant";
    let nodes =
      List.fold_left
        (fun acc ph -> acc + (Meter.get meter ph).Meter.merkle_nodes)
        0
        [ Meter.Searcher; Meter.Parser; Meter.Checker ]
    in
    let build_s = Meter.total_cpu_seconds costs build in
    let merkle_s = Meter.total_cpu_seconds costs meter in
    {
      mk_dirty = k;
      mk_build_s = build_s;
      mk_merkle_s = merkle_s;
      mk_leaves = counter "merkle.leaves_rehashed" - leaves0;
      mk_nodes = nodes;
      mk_speedup = build_s /. merkle_s;
    }
  in
  let rows = List.map (fun k -> steady_sweep ~k) dirty in
  Mc_telemetry.Registry.set_enabled was_enabled;
  rows

type fault_row = {
  fl_transient : float;
  fl_scenarios : int;
  fl_detected : int;
  fl_exact : int;
  fl_degraded : int;
  fl_errors : int;
  fl_retries : int;
  fl_aborts : int;
}

(* X9: the detection suite under injected transient map faults. Bounded
   priced retries keep every verdict quorum-backed well past realistic
   fault rates — detection should stay exact across the sweep, with the
   retry counters growing and degraded verdicts staying at zero until
   the abort probability (rate^max_attempts per page) becomes visible. *)
let fault_sweep ?(vms = 8) ?(rates = [ 0.0; 0.02; 0.05; 0.1; 0.2 ])
    ?(seed = 2012L) ?(fault_seed = 9) () =
  List.map
    (fun rate ->
      let faults =
        if rate = 0.0 then None
        else
          Some
            {
              Mc_memsim.Faultplan.none with
              Mc_memsim.Faultplan.transient_rate = rate;
              fault_seed;
            }
      in
      let counter name =
        Mc_telemetry.Metric.counter_value (Mc_telemetry.Registry.counter name)
      in
      let was_enabled = Mc_telemetry.Registry.enabled () in
      Mc_telemetry.Registry.set_enabled true;
      let retries0 = counter "vmi.retries" in
      let aborts0 = counter "vmi.fault_aborts" in
      let results = Scenario.run_all ~vms ~seed ?faults () in
      let retries = counter "vmi.retries" - retries0 in
      let aborts = counter "vmi.fault_aborts" - aborts0 in
      Mc_telemetry.Registry.set_enabled was_enabled;
      let count f =
        List.length
          (List.filter
             (fun r -> match r with Ok d -> f d | Error _ -> false)
             results)
      in
      {
        fl_transient = rate;
        fl_scenarios = List.length results;
        fl_detected = count (fun (d : Scenario.detection) -> d.detected);
        fl_exact =
          count (fun (d : Scenario.detection) -> d.flags_exact && d.clean_vm_ok);
        fl_degraded = count (fun (d : Scenario.detection) -> d.degraded);
        fl_errors =
          List.length
            (List.filter (fun r -> Result.is_error r) results);
        fl_retries = retries;
        fl_aborts = aborts;
      })
    rates

type baseline_cell = Detected | Missed | False_alarm | Clean

let baseline_cell_string = function
  | Detected -> "detected"
  | Missed -> "MISSED"
  | False_alarm -> "FALSE ALARM"
  | Clean -> "clean"

type baseline_row = {
  scenario : string;
  svv : baseline_cell;
  hashdb : baseline_cell;
  lkim : baseline_cell;
  modchecker : baseline_cell;
}

let svv_cell ~infected dom name =
  match Mc_baselines.Svv.check dom ~module_name:name with
  | Error e -> failwith ("svv: " ^ e)
  | Ok v ->
      if v.Mc_baselines.Svv.clean then if infected then Missed else Clean
      else if infected then Detected
      else False_alarm

let lkim_cell ~infected dom name ~reference =
  match Mc_baselines.Lkim.check dom ~module_name:name ~reference with
  | Error e -> failwith ("lkim: " ^ e)
  | Ok v ->
      if v.Mc_baselines.Lkim.clean then if infected then Missed else Clean
      else if infected then Detected
      else False_alarm

let hashdb_cell ~infected db dom name =
  let fs = Mc_winkernel.Kernel.fs (Mc_hypervisor.Dom.kernel_exn dom) in
  match Mc_winkernel.Fs.read_file fs (Mc_winkernel.Fs.module_path name) with
  | None -> failwith "hashdb: file missing"
  | Some file -> (
      match Mc_baselines.Hashdb.check_load db ~name file with
      | Mc_baselines.Hashdb.Verified -> if infected then Missed else Clean
      | Mc_baselines.Hashdb.Hash_mismatch | Mc_baselines.Hashdb.Unknown_module
        ->
          if infected then Detected else False_alarm)

let modchecker_cell ~infected cloud vm name =
  match Orchestrator.check_module cloud ~target_vm:vm ~module_name:name with
  | Error e -> failwith ("modchecker: " ^ e)
  | Ok o ->
      if o.Orchestrator.report.majority_ok then
        if infected then Missed else Clean
      else if infected then Detected
      else False_alarm

let baseline_table ?(vms = 5) ?(seed = 2012L) () =
  let reference = (Catalog.image "hal.dll").Catalog.file in
  let db = Mc_baselines.Hashdb.build_for_catalog Catalog.standard_modules in
  (* Scenario 1: memory-only inline hook on one VM. *)
  let row1 =
    let cloud = Cloud.create ~vms ~seed () in
    (match Infect.inline_hook cloud ~vm:1 with
    | Ok _ -> ()
    | Error e -> failwith e);
    let dom = Cloud.vm cloud 1 in
    {
      scenario = "memory-only inline hook";
      svv = svv_cell ~infected:true dom "hal.dll";
      hashdb = hashdb_cell ~infected:true db dom "hal.dll";
      lkim = lkim_cell ~infected:true dom "hal.dll" ~reference;
      modchecker = modchecker_cell ~infected:true cloud 1 "hal.dll";
    }
  in
  (* Scenario 2: disk infection then load (experiment 1 style). *)
  let row2 =
    let cloud = Cloud.create ~vms ~seed () in
    (match Infect.single_opcode_replacement cloud ~vm:1 with
    | Ok _ -> ()
    | Error e -> failwith e);
    let dom = Cloud.vm cloud 1 in
    {
      scenario = "disk-then-load opcode patch";
      svv = svv_cell ~infected:true dom "hal.dll";
      hashdb = hashdb_cell ~infected:true db dom "hal.dll";
      lkim = lkim_cell ~infected:true dom "hal.dll" ~reference;
      modchecker = modchecker_cell ~infected:true cloud 1 "hal.dll";
    }
  in
  (* Scenario 3: a legitimate hal.dll update rolled out to every VM. *)
  let row3 =
    let cloud = Cloud.create ~vms ~seed () in
    let v2 = (Catalog.image ~version:2 "hal.dll").Catalog.file in
    for i = 0 to vms - 1 do
      Infect.write_module_file (Cloud.vm cloud i) ~name:"hal.dll" v2;
      Cloud.reboot_vm cloud i
    done;
    let dom = Cloud.vm cloud 1 in
    {
      scenario = "legitimate update, all VMs";
      svv = svv_cell ~infected:false dom "hal.dll";
      hashdb = hashdb_cell ~infected:false db dom "hal.dll";
      lkim = lkim_cell ~infected:false dom "hal.dll" ~reference;
      modchecker = modchecker_cell ~infected:false cloud 1 "hal.dll";
    }
  in
  (* Scenario 4: identical disk infection on every VM (SQL-Slammer-style
     mass spread — ModChecker's documented blind spot). *)
  let row4 =
    let cloud = Cloud.create ~vms ~seed () in
    let infected_file =
      match
        Mc_malware.Opcode_patch.infect_file ~module_name:"hal.dll"
          ~func:"HalInitSystem" ()
      with
      | Ok (f, _) -> f
      | Error e -> failwith e
    in
    for i = 0 to vms - 1 do
      Infect.write_module_file (Cloud.vm cloud i) ~name:"hal.dll" infected_file;
      Cloud.reboot_vm cloud i
    done;
    let dom = Cloud.vm cloud 1 in
    {
      scenario = "identical infection, all VMs";
      svv = svv_cell ~infected:true dom "hal.dll";
      hashdb = hashdb_cell ~infected:true db dom "hal.dll";
      lkim = lkim_cell ~infected:true dom "hal.dll" ~reference;
      modchecker = modchecker_cell ~infected:true cloud 1 "hal.dll";
    }
  in
  [ row1; row2; row3; row4 ]

type engine_row = {
  er_dup : int;
  er_requests : int;
  er_standalone_s : float;
  er_engine_s : float;
  er_coalesced : int;
  er_speedup : float;
}

(* X10: what the long-lived engine buys over looping the one-shot API.
   The same batch — a few distinct surveys, each asked [dup] times, the
   advisory-fan-in shape — is run both ways and priced from the meters.
   Standalone pays the full pipeline per ask; the engine coalesces
   duplicates still in flight and answers re-asks from the shared
   incremental caches, so its curve should flatten as [dup] grows. *)
let engine_throughput ?(vms = 8) ?(dups = [ 1; 2; 4; 8 ]) ?(seed = 2013L) () =
  let modules = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ] in
  let costs = Costs.default in
  List.map
    (fun dup ->
      let requests = dup * List.length modules in
      let cloud = Cloud.create ~vms ~seed () in
      let standalone = Meter.create () in
      List.iter
        (fun m ->
          for _ = 1 to dup do
            ignore (Orchestrator.survey ~meter:standalone cloud ~module_name:m)
          done)
        modules;
      let cloud = Cloud.create ~vms ~seed () in
      let engine = Mc_engine.create ~shards:2 cloud in
      let cells =
        List.concat_map
          (fun m ->
            List.init dup (fun _ ->
                match
                  Mc_engine.submit engine
                    (Mc_engine.Survey { module_name = m })
                with
                | Ok c -> c
                | Error r -> failwith (Mc_engine.rejection_message r)))
          modules
      in
      List.iter
        (fun c -> ignore (Mc_parallel.Deferred.await c))
        cells;
      Mc_engine.drain engine;
      let standalone_s = Meter.total_cpu_seconds costs standalone in
      let engine_s = Meter.total_cpu_seconds costs (Mc_engine.meter engine) in
      let st = Mc_engine.stats engine in
      {
        er_dup = dup;
        er_requests = requests;
        er_standalone_s = standalone_s;
        er_engine_s = engine_s;
        er_coalesced = st.Mc_engine.st_coalesced;
        er_speedup = standalone_s /. engine_s;
      })
    dups

(* --- X12: federation scale --------------------------------------------- *)

type federation_row = {
  fd_hosts : int;
  fd_racks : int;
  fd_vms : int;  (* total, across hosts *)
  fd_levels : int;  (* distinct kernel builds in the fleet *)
  fd_detected : bool;
  fd_skew_fp : int;
  fd_parity : bool;
  fd_fleet_cpu_s : float;
  fd_critical_s : float;
}

let federation_scale ?(hosts = [ 2; 4; 8; 16 ]) ?(vms_per_host = 5)
    ?(seed = 2012L) () =
  let module Topo = Mc_federation.Topology in
  let module Co = Mc_federation.Coordinator in
  List.map
    (fun n ->
      let hosts_per_rack = min n 4 in
      let racks = (n + hosts_per_rack - 1) / hosts_per_rack in
      let spec =
        {
          Topo.default_spec with
          Topo.racks_per_region = racks;
          hosts_per_rack;
          vms_per_host;
          patch_levels = [ 1; 2; 3 ];
          seed;
        }
      in
      let topo = Topo.create ~spec () in
      let victim = n / 2 in
      let victim_cloud = (Topo.host topo victim).Mc_federation.Host.cloud in
      (match Mc_malware.Infect.inline_hook victim_cloud ~vm:1 with
      | Ok _ -> ()
      | Error e -> failwith e);
      let r = Co.survey topo ~module_name:"hal.dll" in
      let detected =
        r.Co.fb_verdict = Modchecker.Report.Infected
        && r.Co.fb_deviant_vms = [ (victim, 1) ]
      in
      (* The same verdict the victim host's own pool reaches standalone:
         detection parity between one hop of hierarchy and none. *)
      let standalone =
        Orchestrator.survey victim_cloud ~module_name:"hal.dll"
      in
      let parity =
        standalone.Modchecker.Report.deviant_vms = [ 1 ]
        && Co.exit_code r = Modchecker.Exit_code.of_survey standalone
      in
      let clean = Co.survey topo ~module_name:"tcpip.sys" in
      let skew_fp =
        List.length clean.Co.fb_deviant_vms
        + List.length clean.Co.fb_deviant_hosts
      in
      {
        fd_hosts = n;
        fd_racks = racks;
        fd_vms = Topo.vm_count topo;
        fd_levels = List.length (Topo.distinct_levels topo);
        fd_detected = detected;
        fd_skew_fp = skew_fp;
        fd_parity = parity;
        fd_fleet_cpu_s = r.Co.fb_fleet_cpu_s;
        fd_critical_s = r.Co.fb_critical_path_s;
      })
    hosts

(* --- X15: traffic replay over the serving stack ------------------------ *)

type replay_row = {
  rp_shards : int;
  rp_requests : int;
  rp_responses : int;
  rp_coalesced : int;
  rp_busy : int;
  rp_retries : int;
  rp_critical_s : float;
  rp_total_s : float;
  rp_rps : float;
  rp_speedup : float;
  rp_ledger_ok : bool;
  rp_violations : int;
}

(* X15: requests/s as the engine gains shards, measured on the metered
   virtual clock (the critical path is the busiest shard's priced
   seconds — what the wall clock would be with a core per shard), so the
   scaling claim survives a one-core bench host. Every row replays the
   same seeded traffic through a full [Serve] session — window, Busy
   replies, ledger — and verifies its hash chain afterwards; the oracle
   violation count must be zero for the throughput numbers to mean
   anything. *)
let replay_throughput ?(shard_counts = [ 1; 2; 4 ]) ?(requests = 2000)
    ?(dup_percent = 25) ?(seed = 2014L) () =
  let profile =
    { Mc_simtest.Traffic.default_profile with p_dup_percent = dup_percent }
  in
  let rows =
    List.map
      (fun shards ->
        let ledger = Mc_ledger.create () in
        let o =
          Mc_simtest.Traffic.replay ~profile ~shards ~queue_bound:64
            ~window:32 ~ledger ~seed ~requests ()
        in
        let ledger_ok =
          match Mc_ledger.verify (Mc_ledger.contents ledger) with
          | Ok s -> s.Mc_ledger.sum_entries = o.Mc_simtest.Traffic.to_responses
          | Error _ -> false
        in
        {
          rp_shards = shards;
          rp_requests = o.Mc_simtest.Traffic.to_requests;
          rp_responses = o.Mc_simtest.Traffic.to_responses;
          rp_coalesced = o.Mc_simtest.Traffic.to_coalesced;
          rp_busy = o.Mc_simtest.Traffic.to_busy;
          rp_retries = o.Mc_simtest.Traffic.to_retries;
          rp_critical_s = o.Mc_simtest.Traffic.to_critical_s;
          rp_total_s = o.Mc_simtest.Traffic.to_total_virtual_s;
          rp_rps = o.Mc_simtest.Traffic.to_rps_virtual;
          rp_speedup = 1.0;
          rp_ledger_ok = ledger_ok;
          rp_violations = List.length o.Mc_simtest.Traffic.to_violations;
        })
      shard_counts
  in
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun r ->
          {
            r with
            rp_speedup =
              (if first.rp_rps > 0.0 then r.rp_rps /. first.rp_rps else 0.0);
          })
        rows

(* --- X16: detection probability under an evasive TOCTOU adversary ------ *)

type evasion_row = {
  ez_label : string;
  ez_detect_p : float;
  ez_mean_ttd_s : float;
  ez_trials : int;
}

(* X16: a TOCTOU restorer is dirty only [dwell] out of every [period]
   seconds, so a polling patrol detects it only when a sweep boundary
   lands inside a dirty window — the phase-averaged detection
   probability sits near the dwell ratio once the interval outgrows the
   window. The trials spread the machine's launch phase evenly over one
   period; the event-driven patrol sees the infect write itself trap, so
   it detects every phase. *)
let evasion_detection ?(vms = 4) ?(trials = 12) ?(dwell = 5.0)
    ?(period = 60.0) ?(seed = 2016L) () =
  let module_name = "hal.dll" in
  let watch = [ module_name ] in
  let until = 241.0 in
  let starts =
    List.init trials (fun i ->
        1.0 +. (period *. float_of_int i /. float_of_int trials))
  in
  let config interval =
    {
      Modchecker.Patrol.default_config with
      Modchecker.Patrol.watch;
      interval_s = interval;
    }
  in
  let run_trial ~trigger interval start =
    let cloud = Cloud.create ~vms ~seed () in
    let machine =
      match
        Mc_malware.Strategy.toctou ~module_name cloud ~vm:(min 1 (vms - 1))
          ~start ~dwell ~period
      with
      | Ok m -> m
      | Error e -> failwith e
    in
    let events = Mc_malware.Strategy.events machine ~until in
    let o =
      Modchecker.Patrol.run ~config:(config interval) ~trigger ~events cloud
        ~until
    in
    Modchecker.Patrol.time_to_detect o ~module_name ~infected_at:start
  in
  let row label ~trigger interval =
    let ttds = List.filter_map (run_trial ~trigger interval) starts in
    let detected = List.length ttds in
    {
      ez_label = label;
      ez_detect_p = float_of_int detected /. float_of_int trials;
      ez_mean_ttd_s =
        (if detected = 0 then nan
         else List.fold_left ( +. ) 0.0 ttds /. float_of_int detected);
      ez_trials = trials;
    }
  in
  List.map
    (fun interval ->
      row
        (Printf.sprintf "poll %.0fs" interval)
        ~trigger:Modchecker.Patrol.Poll interval)
    [ 5.0; 15.0; 30.0 ]
  @ [ row "event-driven" ~trigger:Modchecker.Patrol.Traps 30.0 ]
