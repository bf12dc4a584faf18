(* The modchecker command-line tool.

   Because the whole testbed is simulated, every subcommand first builds a
   cloud (VM count, cores, and seed are flags), optionally stages an
   infection, and then runs the requested analysis against it. *)

open Cmdliner

module Cloud = Mc_hypervisor.Cloud
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Exit_code = Modchecker.Exit_code

(* --- common flags ------------------------------------------------------ *)

let verbose_arg =
  let doc = "Enable debug logging on stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let vms_arg =
  let doc = "Number of DomU guests in the simulated cloud." in
  Arg.(value & opt int 15 & info [ "vms" ] ~docv:"N" ~doc)

let cores_arg =
  let doc = "Physical cores of the simulated host." in
  Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Deterministic seed for the cloud (module load bases etc.)." in
  Arg.(value & opt int64 2012L & info [ "seed" ] ~docv:"SEED" ~doc)

let module_arg =
  let doc = "Kernel module to check (e.g. hal.dll, http.sys)." in
  Arg.(value & opt string "hal.dll" & info [ "m"; "module" ] ~docv:"NAME" ~doc)

let vm_arg =
  let doc = "Target DomU index, 0-based (Dom1 is index 0)." in
  Arg.(value & opt int 0 & info [ "vm" ] ~docv:"I" ~doc)

type pool = { vms : int; cores : int; seed : int64; vm : int }

(* The simulated pool and the VM a subcommand targets, validated once: an
   empty pool or a --vm outside it is a usage error (exit 124), not an
   uncaught exception from deep inside the cloud. [vms_arg] is a
   parameter because federate counts VMs per host. *)
let pool_of vms_arg =
  let make vms cores seed vm =
    if vms < 1 then
      `Error (false, Printf.sprintf "--vms must be at least 1, got %d" vms)
    else if vm < 0 || vm >= vms then
      `Error
        ( false,
          Printf.sprintf
            "--vm %d is out of range for a %d-VM pool (valid: 0..%d)" vm vms
            (vms - 1) )
    else `Ok { vms; cores; seed; vm }
  in
  Term.(ret (const make $ vms_arg $ cores_arg $ seed_arg $ vm_arg))

let pool_arg = pool_of vms_arg

let infect_arg =
  let doc =
    "Stage an infection before checking: one of 'opcode', 'hook', 'stub', \
     'dll-inject', 'ptr', 'hide'."
  in
  Arg.(
    value
    & opt (some (enum
           [ ("opcode", `Opcode); ("hook", `Hook); ("stub", `Stub);
             ("dll-inject", `Dll); ("ptr", `Ptr); ("hide", `Hide) ]))
        None
    & info [ "infect" ] ~docv:"TECHNIQUE" ~doc)

let fault_spec_conv =
  let parse s =
    match Mc_memsim.Faultplan.of_string s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  let print fmt s =
    Format.pp_print_string fmt (Mc_memsim.Faultplan.to_string s)
  in
  Arg.conv ~docv:"SPEC" (parse, print)

let fault_spec_arg =
  let doc =
    "Arm deterministic fault injection on every DomU. Comma-separated \
     key=value pairs: 'transient', 'paged', 'torn', 'pause' are \
     probabilities in [0,1], 'seed' picks the fault pattern. E.g. \
     'transient=0.05,seed=7'. Faults are absorbed by bounded retries; a \
     VM whose retries are exhausted is excluded from the vote rather \
     than miscounted."
  in
  Arg.(
    value
    & opt (some fault_spec_conv) None
    & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let checked_conv of_string pp ~expected ok =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got: %s" expected s))
  in
  Arg.conv (parse, pp)

let float_conv = checked_conv float_of_string_opt Format.pp_print_float

(* A sweep interval: zero or less would stall the patrol clock. *)
let interval_conv =
  float_conv ~expected:"a positive number of seconds" (fun f -> f > 0.0)

(* A quorum: NaN and values outside [0, 1] fail every comparison the vote
   makes, so every module would come back degraded. *)
let fraction_conv =
  float_conv ~expected:"a fraction in [0, 1]" (fun f -> f >= 0.0 && f <= 1.0)

(* A shard, queue-slot or in-flight count: zero leaves the engine nothing
   to run requests on, admit them into, or stream them through. *)
let positive_conv =
  checked_conv int_of_string_opt Format.pp_print_int
    ~expected:"a positive integer" (fun n -> n > 0)

let quorum_arg =
  let doc =
    "Minimum responding fraction of the surveyed VMs for a verdict to \
     count; below the floor the verdict is DEGRADED (exit code 3, never \
     confused with an infection's exit code 2)."
  in
  Arg.(
    value
    & opt fraction_conv Report.default_quorum
    & info [ "quorum" ] ~docv:"FRACTION" ~doc)

let trace_arg =
  let doc =
    "Enable telemetry and write a JSONL trace (one span or metric point \
     per line) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Enable telemetry and print a metrics summary (span totals, counters, \
     histogram quantiles) when done."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Export telemetry via [at_exit] so subcommands that [exit 2] on a failed
   verdict still flush their trace. *)
let with_telemetry trace metrics f =
  if trace <> None || metrics then begin
    Mc_telemetry.Registry.set_enabled true;
    at_exit (fun () ->
        let snap = Mc_telemetry.Registry.snapshot () in
        (match trace with
        | Some path -> (
            (* The verdict already happened; a bad trace path must not
               turn it into a crash (or clobber the exit code). *)
            try Mc_telemetry.Export.write ~path snap
            with Sys_error msg ->
              Printf.eprintf "modchecker: cannot write trace: %s\n" msg)
        | None -> ());
        if metrics then print_string (Mc_telemetry.Export.summary snap))
  end;
  f ()

let json_arg =
  let doc = "Emit the result as JSON on stdout instead of tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

let pinpoint_arg =
  let doc =
    "After a .text mismatch, name the patched function(s) using the\n\
     module's symbols (dAnubis-style); a Merkle descent first narrows the \
     byte survey to the deviant pages."
  in
  Arg.(value & flag & info [ "pinpoint" ] ~doc)

let make_cloud ?fault_spec p =
  Cloud.create ~vms:p.vms ~cores:p.cores ~seed:p.seed ?fault_spec ()

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit Exit_code.error

(* Stage the --infect technique on [vm] and announce it as
   "<prefix>staged: TECHNIQUE on <where>" unless [quiet]. *)
let stage ?(quiet = false) ?(prefix = "") ?where cloud vm infect =
  Option.iter
    (fun technique ->
      let open Mc_malware.Infect in
      let inf =
        or_die
          (match technique with
          | `Opcode -> single_opcode_replacement cloud ~vm
          | `Hook -> inline_hook cloud ~vm
          | `Stub -> stub_modification cloud ~vm
          | `Dll -> dll_injection cloud ~vm
          | `Ptr -> pointer_hook cloud ~vm
          | `Hide -> hide_module cloud ~vm ~module_name:"http.sys")
      in
      if not quiet then
        Printf.printf "%sstaged: %s on %s\n" prefix inf.technique
          (Option.value where ~default:(Printf.sprintf "Dom%d" (vm + 1))))
    infect

(* Every subcommand's knobs meet Orchestrator.Config here, in one place;
   the per-command defaulting this replaces used to drift. *)
let make_check_config ~quorum =
  Orchestrator.Config.with_quorum quorum Orchestrator.Config.default

(* --- check ------------------------------------------------------------- *)

let print_pinpoint cloud outcome module_name vm =
  let report = outcome.Orchestrator.report in
  let flagged_text =
    List.exists
      (fun k ->
        Modchecker.Artifact.equal_kind k (Modchecker.Artifact.Section_data ".text"))
      report.Report.flagged_artifacts
  in
  if not flagged_text then
    print_endline "pinpoint: .text is not among the flagged artifacts"
  else begin
    (* The reference is the first comparison VM that answered with a
       copy: the majority of the pool is clean whenever the verdict is
       meaningful, and an unreachable VM or one lacking the module has
       nothing to compare against. *)
    let present (c : Report.comparison) =
      List.exists
        (fun v -> v.Modchecker.Checker.av_digest2 <> "(absent)")
        c.Report.result.Modchecker.Checker.verdicts
    in
    let peer =
      List.find_map
        (fun (c : Report.comparison) ->
          if present c then Some c.Report.other_vm else None)
        report.Report.comparisons
    in
    match peer with
    | None -> ()
    | Some peer -> (
        let fetch vm =
          Orchestrator.fetch_artifacts cloud ~vm ~module_name
            ~meter:(Mc_hypervisor.Meter.create ())
        in
        match (fetch vm, fetch peer) with
        | Orchestrator.Fetched (i1, a1), Orchestrator.Fetched (i2, a2) -> (
            let symbols =
              Mc_pe.Catalog.symbols (Mc_pe.Catalog.image module_name)
            in
            let base1 = i1.Modchecker.Searcher.mi_base in
            let base2 = i2.Modchecker.Searcher.mi_base in
            (* Descend the two .text trees first and hand the deviant page
               spans to the byte-level survey, so pinpointing scans
               O(deviant pages) instead of the whole section. *)
            let ranges =
              Modchecker.Pinpoint.descent_ranges ~base1 a1 ~base2 a2
            in
            Option.iter
              (fun rs ->
                Printf.printf
                  "pinpoint: merkle descent localized %d deviant page(s)\n"
                  (List.length rs))
              ranges;
            match
              Modchecker.Pinpoint.analyze_text_pair ?ranges ~base1 a1 ~base2
                a2 ~symbols
            with
            | Ok findings ->
                Printf.printf "pinpoint (vs Dom%d):\n" (peer + 1);
                List.iter
                  (fun f ->
                    Printf.printf
                      "  %s (rva 0x%x): %d byte(s) changed, first at rva 0x%x\n"
                      f.Modchecker.Pinpoint.pf_function
                      f.Modchecker.Pinpoint.pf_fn_rva
                      f.Modchecker.Pinpoint.pf_diff_bytes
                      f.Modchecker.Pinpoint.pf_first_diff_rva)
                  findings
            | Error e -> Printf.printf "pinpoint failed: %s\n" e)
        | _ -> print_endline "pinpoint: could not fetch both copies")
  end

let run_check verbose pool module_name infect fault_spec quorum pinpoint json
    trace metrics =
  with_telemetry trace metrics @@ fun () ->
  setup_logs verbose;
  let cloud = make_cloud ?fault_spec pool in
  let vm = pool.vm in
  stage ~quiet:json cloud vm infect;
  let outcome =
    or_die
      (Orchestrator.check_module ~config:(make_check_config ~quorum) cloud
         ~target_vm:vm ~module_name)
  in
  if json then
    print_endline (Mc_util.Json.to_string_pretty (Report.to_json outcome.report))
  else begin
    Printf.printf "%s\n" (Report.to_table outcome.report);
    Printf.printf "verdict: %s\n" (Report.verdict_string outcome.report);
    let costs = Mc_hypervisor.Costs.default in
    let p = Mc_harness.Figures.phase_seconds costs outcome in
    Printf.printf
      "simulated cost: searcher %.2f ms, parser %.2f ms, checker %.2f ms\n"
      (p.searcher_s *. 1e3) (p.parser_s *. 1e3) (p.checker_s *. 1e3);
    if pinpoint && outcome.report.Report.verdict = Report.Infected then
      print_pinpoint cloud outcome module_name vm
  end;
  Exit_code.exit_with (Exit_code.of_verdict outcome.report.Report.verdict)

let check_cmd =
  let doc = "Check one module's integrity across the VM pool." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run_check $ verbose_arg $ pool_arg $ module_arg $ infect_arg
      $ fault_spec_arg $ quorum_arg $ pinpoint_arg $ json_arg
      $ trace_arg $ metrics_arg)

(* --- survey ------------------------------------------------------------ *)

let run_survey pool module_name infect fault_spec quorum json trace metrics =
  with_telemetry trace metrics @@ fun () ->
  let cloud = make_cloud ?fault_spec pool in
  stage ~quiet:json cloud pool.vm infect;
  let s =
    Orchestrator.survey ~config:(make_check_config ~quorum) cloud
      ~module_name
  in
  if json then
    print_endline (Mc_util.Json.to_string_pretty (Report.survey_to_json s))
  else begin
    Printf.printf "module: %s\n" s.Report.survey_module;
    let show name vms =
      Printf.printf "%s: %s\n" name
        (if vms = [] then "(none)"
         else
           String.concat ", "
             (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) vms))
    in
    show "missing on" s.Report.missing_on;
    show "deviant (failed majority vote)" s.Report.deviant_vms;
    if s.Report.unreachable_on <> [] then
      show "unreachable (faults)" (List.map fst s.Report.unreachable_on)
  end;
  Exit_code.exit_with (Exit_code.of_survey s)

let survey_cmd =
  let doc = "Full-mesh comparison of one module across every VM." in
  Cmd.v
    (Cmd.info "survey" ~doc)
    Term.(
      const run_survey $ pool_arg $ module_arg $ infect_arg $ fault_spec_arg
      $ quorum_arg $ json_arg $ trace_arg $ metrics_arg)

(* --- list-modules ------------------------------------------------------ *)

let run_list pool =
  let cloud = make_cloud pool in
  let vmi =
    Mc_vmi.Vmi.init (Cloud.vm cloud pool.vm) Mc_vmi.Symbols.windows_xp_sp2
  in
  let mods = Modchecker.Searcher.list_modules vmi in
  let rows =
    List.map
      (fun (m : Modchecker.Searcher.module_info) ->
        [
          m.mi_name;
          Printf.sprintf "0x%08x" m.mi_base;
          Printf.sprintf "0x%x" m.mi_size;
          m.mi_full_name;
        ])
      mods
  in
  print_string
    (Mc_util.Table.render ~header:[ "module"; "base"; "size"; "path" ] rows)

let list_cmd =
  let doc = "Walk PsLoadedModuleList of one guest over VMI." in
  Cmd.v
    (Cmd.info "list-modules" ~doc)
    Term.(const run_list $ pool_arg)

(* --- detect (the paper's evaluation suite) ----------------------------- *)

let run_detect vms seed fault_spec =
  print_string
    (Mc_harness.Render.detection_table
       (Mc_harness.Scenario.run_all ~vms ~seed ?faults:fault_spec ()))

let detect_cmd =
  let doc = "Run the paper's four detection experiments plus DKOM hiding." in
  Cmd.v
    (Cmd.info "detect" ~doc)
    Term.(const run_detect $ vms_arg $ seed_arg $ fault_spec_arg)

(* --- figures ------------------------------------------------------------ *)

(* Every figure and table, in "--which all" order. *)
let figure_table ~vms ~cores ~seed =
  let module F = Mc_harness.Figures in
  let module R = Mc_harness.Render in
  let max_vms = max 1 (vms - 1) in
  [
    ( "fig7",
      fun () ->
        R.fig_series ~title:"Fig 7: runtime, mostly idle VMs"
          (F.fig7_idle ~max_vms ~cores ~seed ()) );
    ( "fig8",
      fun () ->
        R.fig_series ~title:"Fig 8: runtime, heavily loaded VMs"
          (F.fig8_loaded ~max_vms ~cores ~seed ()) );
    ("fig9", fun () -> R.fig9 (F.fig9_guest_impact ()));
    ( "ablation",
      fun () ->
        let alignment = R.ablation_table (F.alignment_ablation ()) in
        alignment ^ R.cross_pointer_table (F.cross_pointer_ablation ()) );
    ( "parallel",
      fun () -> R.parallel_table (F.parallel_sweep ~vms ~cores ~seed ()) );
    ("baselines", fun () -> R.baseline_table (F.baseline_table ~seed ()));
    ( "strategy",
      fun () -> R.strategy_table (F.survey_strategy_table ~vms ~seed ()) );
    ("patrol", fun () -> R.patrol_table (F.patrol_tradeoff ~seed ()));
    ( "incremental",
      fun () -> R.incremental_table (F.incremental_steady_state ~seed ()) );
    ("merkle", fun () -> R.merkle_table (F.merkle_dirty_sweep ~seed ()));
    ("faults", fun () -> R.fault_table (F.fault_sweep ~seed ()));
    ("engine", fun () -> R.engine_table (F.engine_throughput ~vms ~seed ()));
    ("federation", fun () -> R.federation_table (F.federation_scale ~seed ()));
    ("events", fun () -> R.events_table (F.events_tradeoff ~seed ()));
    ("replay", fun () -> R.replay_table (F.replay_throughput ~seed ()));
    ("evasion", fun () -> R.evasion_table (F.evasion_detection ()));
  ]

let which_arg =
  let doc = "Which figure/table to regenerate." in
  (* Only the keys are read here; no figure is computed. *)
  let keys = List.map fst (figure_table ~vms:1 ~cores:1 ~seed:0L) in
  Arg.(
    value
    & opt (enum (List.map (fun k -> (k, k)) (keys @ [ "all" ]))) "all"
    & info [ "which" ] ~docv:"WHICH" ~doc)

let run_figures which vms cores seed =
  List.iter
    (fun (key, render) ->
      if which = "all" || which = key then print_string (render ()))
    (figure_table ~vms ~cores ~seed)

let figures_cmd =
  let doc = "Regenerate the paper's evaluation figures and the extensions." in
  Cmd.v
    (Cmd.info "figures" ~doc)
    Term.(const run_figures $ which_arg $ vms_arg $ cores_arg $ seed_arg)

(* --- health --------------------------------------------------------------- *)

let run_health pool infect json trace metrics =
  with_telemetry trace metrics @@ fun () ->
  let cloud = make_cloud pool in
  stage ~quiet:json cloud pool.vm infect;
  let report =
    Modchecker.Pool_health.assess
      ~config:(make_check_config ~quorum:Report.default_quorum)
      cloud
  in
  if json then
    print_endline
      (Mc_util.Json.to_string_pretty (Modchecker.Pool_health.to_json report))
  else begin
    print_string (Modchecker.Pool_health.to_table report);
    print_endline (Modchecker.Pool_health.summary report)
  end;
  if report.Modchecker.Pool_health.fr_unreachable <> [] then
    exit Exit_code.degraded
  else if not report.Modchecker.Pool_health.fr_clean then
    exit Exit_code.infected

let health_cmd =
  let doc = "Assess every module on every VM: the fleet dashboard." in
  Cmd.v
    (Cmd.info "health" ~doc)
    Term.(
      const run_health $ pool_arg $ infect_arg $ json_arg
      $ trace_arg $ metrics_arg)

(* --- federate ------------------------------------------------------------ *)

let int_list_conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun x -> x <> "")
        |> List.map int_of_string)
    with Failure _ -> Error (`Msg (Printf.sprintf "not an int list: %s" s))
  in
  let print fmt l =
    Format.pp_print_string fmt (String.concat "," (List.map string_of_int l))
  in
  Arg.conv ~docv:"N,N,..." (parse, print)

let slow_rack_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ rack; factor ] -> (
        try Ok (int_of_string rack, float_of_string factor)
        with Failure _ -> Error (`Msg (Printf.sprintf "bad RACK:FACTOR: %s" s)))
    | _ -> Error (`Msg (Printf.sprintf "expected RACK:FACTOR, got: %s" s))
  in
  let print fmt (r, f) = Format.fprintf fmt "%d:%g" r f in
  Arg.conv ~docv:"RACK:FACTOR" (parse, print)

let run_federate verbose regions racks hosts_per_rack pool patch_levels
    slow_racks down host infect lists module_name host_quorum
    host_deadline fault_spec json trace metrics =
  with_telemetry trace metrics @@ fun () ->
  setup_logs verbose;
  let module Topo = Mc_federation.Topology in
  let module Co = Mc_federation.Coordinator in
  let spec =
    {
      Topo.regions;
      racks_per_region = racks;
      hosts_per_rack;
      vms_per_host = pool.vms;
      cores_per_host = pool.cores;
      patch_levels;
      slow_racks;
      seed = pool.seed;
      fault_spec;
    }
  in
  let topo = try Topo.create ~spec () with Invalid_argument m ->
    prerr_endline ("error: " ^ m);
    exit Exit_code.error
  in
  (if host >= Topo.host_count topo then begin
     Printf.eprintf "error: no host %d in a %d-host fleet\n" host
       (Topo.host_count topo);
     exit Exit_code.error
   end);
  stage ~quiet:json
    ~where:(Printf.sprintf "host%d/Dom%d" host (pool.vm + 1))
    (Topo.host topo host).Mc_federation.Host.cloud pool.vm infect;
  List.iter
    (fun h ->
      if h < Topo.host_count topo then Topo.set_host_down topo h
      else begin
        Printf.eprintf "error: cannot take down host %d of %d\n" h
          (Topo.host_count topo);
        exit Exit_code.error
      end)
    down;
  let config =
    {
      Co.default_config with
      Co.host_quorum;
      host_deadline_s = host_deadline;
    }
  in
  let code =
    if lists then begin
      let fl = Co.survey_lists ~config topo in
      if json then
        print_endline
          (Mc_util.Json.to_string_pretty
             (Mc_util.Json.Obj
                [
                  ("schema", Mc_util.Json.String "modchecker/federation-lists@1");
                  ("verdict",
                   Mc_util.Json.String (Report.verdict_key fl.Co.fl_verdict));
                  ("hosts_surveyed", Mc_util.Json.Int fl.Co.fl_hosts_surveyed);
                  ("hosts_responded", Mc_util.Json.Int fl.Co.fl_hosts_responded);
                ]))
      else
        List.iter
          (fun (h : Co.host_lists) ->
            match h.Co.hl_outcome with
            | Ok lc ->
                Printf.printf "host%d: %d discrepancies, %d unreachable VMs\n"
                  h.Co.hl_host
                  (List.length lc.Orchestrator.lc_discrepancies)
                  (List.length lc.Orchestrator.lc_unreachable)
            | Error e -> Printf.printf "host%d: UNREACHABLE (%s)\n" h.Co.hl_host e)
          fl.Co.fl_per_host;
      Co.exit_code_lists fl
    end
    else begin
      let r = Co.survey ~config topo ~module_name in
      if json then print_endline (Mc_util.Json.to_string_pretty (Co.to_json r))
      else begin
        print_string (Co.to_table topo r);
        print_endline (Co.summary r)
      end;
      Co.exit_code r
    end
  in
  Exit_code.exit_with code

let federate_cmd =
  let doc =
    "Survey a module across a simulated multi-host fleet (hosts x racks x \
     regions, mixed kernel builds) and merge verdicts hierarchically."
  in
  let regions_arg =
    Arg.(value & opt int 1 & info [ "regions" ] ~docv:"N" ~doc:"Regions.")
  in
  let racks_arg =
    Arg.(value & opt int 1 & info [ "racks" ] ~docv:"N"
         ~doc:"Racks per region.")
  in
  let hosts_arg =
    Arg.(value & opt int 3 & info [ "hosts-per-rack" ] ~docv:"N"
         ~doc:"Hosts per rack.")
  in
  let fed_pool_arg =
    pool_of
      Arg.(value & opt int 5 & info [ "vms" ] ~docv:"N"
           ~doc:"DomU guests per host.")
  in
  let levels_arg =
    Arg.(value & opt int_list_conv [ 1 ] & info [ "patch-levels" ]
         ~docv:"L,L,..."
         ~doc:"Kernel builds cycled across hosts (host 0 gets the first). \
               Votes are grouped by build, so a mixed fleet never flags a \
               legitimate version split.")
  in
  let slow_rack_arg =
    Arg.(value & opt_all slow_rack_conv [] & info [ "slow-rack" ]
         ~docv:"RACK:FACTOR"
         ~doc:"Stretch every response from the rack's hosts by FACTOR \
               (repeatable).")
  in
  let down_arg =
    Arg.(value & opt int_list_conv [] & info [ "down" ] ~docv:"H,H,..."
         ~doc:"Hosts to take down before surveying (whole-host outage).")
  in
  let fed_host_arg =
    Arg.(value & opt int 0 & info [ "host" ] ~docv:"H"
         ~doc:"Host carrying the staged infection (with --infect).")
  in
  let lists_arg =
    Arg.(value & flag & info [ "lists" ]
         ~doc:"Compare module load lists within each host (DKOM check) \
               instead of surveying one module.")
  in
  let host_quorum_arg =
    Arg.(value & opt fraction_conv 1.0
         & info [ "host-quorum" ] ~docv:"FRACTION"
         ~doc:"Fraction of hosts that must respond; below it the fleet \
               verdict is DEGRADED (exit 3). Default 1.0: any whole-host \
               outage degrades.")
  in
  let host_deadline_arg =
    Arg.(value & opt (some float) None & info [ "host-deadline" ]
         ~docv:"SECONDS"
         ~doc:"Virtual response-time bound per host; a slow rack can push \
               healthy hosts past it (they count unreachable).")
  in
  Cmd.v
    (Cmd.info "federate" ~doc)
    Term.(
      const run_federate $ verbose_arg $ regions_arg $ racks_arg $ hosts_arg
      $ fed_pool_arg $ levels_arg $ slow_rack_arg $ down_arg $ fed_host_arg
      $ infect_arg $ lists_arg $ module_arg $ host_quorum_arg
      $ host_deadline_arg $ fault_spec_arg $ json_arg $ trace_arg
      $ metrics_arg)

(* --- patrol -------------------------------------------------------------- *)

module Patrol = Modchecker.Patrol
module Strategy = Mc_malware.Strategy

let seconds_or_inf s = if s = infinity then "inf" else Printf.sprintf "%.1fs" s

(* The patrol's threat: nothing, a one-shot --infect, or an --adversary,
   never both. *)
let threat_arg =
  let adversary_arg =
    let kinds =
      Array.to_list
        (Array.map (fun k -> (Strategy.kind_key k, k)) Strategy.all_kinds)
    in
    Arg.(
      value
      & opt (some (enum kinds)) None
      & info [ "adversary" ] ~docv:"KIND"
          ~doc:"Launch an evasive adversary against $(b,--module) on \
                $(b,--vm), starting at $(b,--infect-at); the patrol then \
                watches only that module and reports whether it was \
                caught. 'toctou' infects, restores after $(b,--dwell) \
                and re-infects every $(b,--period); 'pager' hooks, then \
                makes the victim unmappable from Dom0; 'race' lands a \
                coordinated opcode patch on $(b,--victims) to flip the \
                vote; 'tamper' installs a foreign-read shim serving clean \
                bytes to the checker. With $(b,--incremental) or \
                $(b,--event-driven) each sweep also audits the read \
                channel against the hypervisor's physical reads.")
  in
  let make infect adversary =
    match (infect, adversary) with
    | Some _, Some _ ->
        `Error (true, "--adversary and --infect are mutually exclusive")
    | _ -> `Ok (infect, adversary)
  in
  Term.(ret (const make $ infect_arg $ adversary_arg))

let run_patrol verbose pool duration interval (infect, adversary) infect_at
    module_name func victims dwell period incremental event_driven
    fault_spec quorum trace metrics =
  with_telemetry trace metrics @@ fun () ->
  setup_logs verbose;
  let cloud = make_cloud ?fault_spec pool in
  let vm = pool.vm and start = infect_at in
  let machine =
    Option.map
      (fun kind ->
        let m =
          or_die
            (match kind with
            | Strategy.Toctou ->
                Strategy.toctou ~module_name ?func cloud ~vm ~start ~dwell
                  ~period
            | Strategy.Pager ->
                Strategy.pager ~module_name ?func cloud ~vm ~start
            | Strategy.Race ->
                let vms =
                  if victims <> [] then victims
                  else List.init ((pool.vms / 2) + 1) Fun.id
                in
                Strategy.race ~module_name ?func cloud ~vms ~start
            | Strategy.Tamper ->
                Strategy.tamper ~module_name ?func cloud ~vm ~start)
        in
        Printf.printf
          "adversary: %s on %s, target %s:%s, start %.1fs, dwell %s, period \
           %s\n"
          (Strategy.kind_key kind)
          (String.concat ","
             (List.map
                (fun v -> Printf.sprintf "Dom%d" (v + 1))
                (Strategy.vms m)))
          (Strategy.target m) (Strategy.func m) (Strategy.start m)
          (seconds_or_inf (Strategy.dwell m))
          (seconds_or_inf (Strategy.period m));
        m)
      adversary
  in
  let events =
    match (machine, infect) with
    | Some m, _ -> Strategy.events m ~until:duration
    | None, None -> []
    | None, Some _ ->
        [
          ( infect_at,
            fun cloud ->
              stage ~prefix:(Printf.sprintf "[t=%6.1fs] " infect_at) cloud vm
                infect );
        ]
  in
  let incremental = incremental || event_driven in
  let config =
    {
      Patrol.default_config with
      Patrol.watch =
        (if Option.is_none machine then Patrol.default_config.watch
         else [ module_name ]);
      interval_s = interval;
      incremental;
      (* The read-channel anchor audit is what catches the
         checker-tamperer, and it rides on the incremental caches. It is
         armed against an adversary only: every sweep pays for it. *)
      audit_anchors = incremental && Option.is_some machine;
      check = make_check_config ~quorum;
    }
  in
  let o =
    try
      Patrol.run ~config ~events
        ~trigger:(if event_driven then Patrol.Traps else Patrol.Poll)
        cloud ~until:duration
    with Failure msg ->
      prerr_endline ("adversary mutation failed: " ^ msg);
      exit Exit_code.error
  in
  (match machine with
  | None -> (
      Printf.printf
        "patrol finished: %d sweeps + %d reactions over %.1fs virtual, %.3fs \
         Dom0 CPU (%.3f%% duty), mean sweep %.1f ms\n"
        o.sweeps o.reactions o.virtual_elapsed o.cpu_spent
        (100.0 *. o.cpu_spent /. o.virtual_elapsed)
        (o.mean_sweep_wall *. 1e3);
      match List.sort compare o.latencies_s with
      | [] -> ()
      | ls ->
          let n = List.length ls in
          Printf.printf
            "detection latency: median %.3fs, max %.3fs over %d alarm(s)\n"
            (List.nth ls (n / 2))
            (List.nth ls (n - 1))
            n)
  | Some m -> (
      Printf.printf
        "patrol finished: %d sweeps + %d reactions over %.1fs virtual; \
         adversary performed %d infection(s), %d restore(s)%s\n"
        o.sweeps o.reactions o.virtual_elapsed (Strategy.infections m)
        (Strategy.restores m)
        (if Strategy.masked m then " (foreign-read shim still installed)"
         else "");
      match Patrol.time_to_detect o ~module_name ~infected_at:start with
      | Some d -> Printf.printf "detected %.3fs after the first infection\n" d
      | None ->
          Printf.printf "EVADED: no integrity alarm named %s after t=%.1fs\n"
            module_name start));
  if o.alarms = [] then print_endline "no alarms."
  else begin
    print_endline "alarm log:";
    List.iter
      (fun (a : Patrol.alarm) ->
        Printf.printf "  [t=%6.1fs] %-25s %s on %s\n" a.at
          (Patrol.alarm_kind_string a.kind)
          a.alarm_module
          (String.concat ","
             (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) a.alarm_vms)))
      o.alarms
  end;
  (* Quorum loss alone exits degraded, not infected. *)
  Exit_code.exit_with (Exit_code.of_alarms o.alarms)

let patrol_cmd =
  let doc =
    "Run the patrol service on the simulated cloud's clock, optionally \
     against an evasive adversary."
  in
  let duration_arg =
    Arg.(value & opt float 300.0 & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Virtual seconds to patrol.")
  in
  let interval_arg =
    Arg.(value & opt interval_conv 30.0 & info [ "interval" ] ~docv:"SECONDS"
         ~doc:"Sweep interval (positive). A polling patrol only catches a \
               TOCTOU restorer when a sweep lands inside a dirty window.")
  in
  let infect_at_arg =
    Arg.(value & opt float 65.0 & info [ "infect-at" ] ~docv:"SECONDS"
         ~doc:"Virtual time at which to stage the $(b,--infect) technique, \
               or of the $(b,--adversary)'s first infection.")
  in
  let func_arg =
    Arg.(value & opt (some string) None & info [ "func" ] ~docv:"SYMBOL"
         ~doc:"Exported function the adversary hooks (default \
               HalInitSystem).")
  in
  let victims_arg =
    Arg.(value & opt int_list_conv [] & info [ "victims" ] ~docv:"I,I,..."
         ~doc:"VMs the coordinated racer patches ($(b,--adversary race)); \
               defaults to the smallest strict majority 0,1,...")
  in
  let dwell_arg =
    Arg.(value & opt float 5.0 & info [ "dwell" ] ~docv:"SECONDS"
         ~doc:"TOCTOU dirty-window length before the clean bytes come \
               back.")
  in
  let period_arg =
    Arg.(value & opt float 60.0 & info [ "period" ] ~docv:"SECONDS"
         ~doc:"TOCTOU re-infection period ('inf' for one cycle).")
  in
  let incremental_arg =
    Arg.(value & flag & info [ "incremental" ]
         ~doc:"Track dirty pages and re-check only what changed between \
               sweeps: log-dirty plus a digest cache of per-section Merkle \
               trees (one MD5 leaf per page), so k dirty module pages \
               re-hash k leaves plus O(log n) interior nodes. Verdicts and \
               exit codes are identical to full hashing.")
  in
  let event_driven_arg =
    Arg.(value & flag & info [ "event-driven" ]
         ~doc:"Replace polling with hypervisor write traps on the pages \
               backing the watched modules: a guest write triggers an \
               immediate targeted re-check (implies --incremental), with a \
               slow full sweep as a safety net. \
               $(b,--interval) then sets the safety-sweep period's base \
               (20x).")
  in
  Cmd.v
    (Cmd.info "patrol" ~doc)
    Term.(
      const run_patrol $ verbose_arg $ pool_arg $ duration_arg $ interval_arg
      $ threat_arg $ infect_at_arg $ module_arg $ func_arg $ victims_arg
      $ dwell_arg $ period_arg $ incremental_arg
      $ event_driven_arg $ fault_spec_arg $ quorum_arg $ trace_arg
      $ metrics_arg)

(* --- serve ---------------------------------------------------------------- *)

module Wire = Mc_engine.Wire

let reply_line (reply : Wire.reply) =
  match reply with
  | Wire.Resp r -> (
      let key = Wire.frame_key r.Wire.rs_frame in
      match r.Wire.rs_body with
      | Wire.Report_body rep ->
          Printf.sprintf "%-28s %s" key (Report.verdict_string rep)
      | Wire.Error_body e -> Printf.sprintf "%-28s ERROR: %s" key e
      | Wire.Survey_body s ->
          Printf.sprintf "%-28s %s%s" key
            (Report.verdict_key s.Report.s_verdict)
            (match (s.Report.deviant_vms, s.Report.missing_on) with
            | [], [] -> ""
            | dev, miss ->
                Printf.sprintf " (deviant: %s; missing: %s)"
                  (String.concat "," (List.map string_of_int dev))
                  (String.concat "," (List.map string_of_int miss)))
      | Wire.Lists_body lc ->
          Printf.sprintf "%-28s %d discrepancy(ies)" key
            (List.length lc.Orchestrator.lc_discrepancies))
  | Wire.Busy { b_seq; b_retry_after_s; b_queue_bound } ->
      Printf.sprintf "#%d busy: retry after %.3fs (queue bound %d)" b_seq
        b_retry_after_s b_queue_bound
  | Wire.Draining { d_seq } -> Printf.sprintf "#%d draining" d_seq
  | Wire.Invalid { i_seq; i_error } ->
      Printf.sprintf "#%d invalid: %s" i_seq i_error

let run_serve verbose pool requests_path stream window ledger_path shards
    queue_bound infect fault_spec quorum json trace metrics =
  with_telemetry trace metrics @@ fun () ->
  setup_logs verbose;
  let cloud = make_cloud ?fault_spec pool in
  stage ~quiet:(json || stream) cloud pool.vm infect;
  let engine =
    (* The engine is always incremental: it substitutes its own shared
       cache of Merkle prints. *)
    Mc_engine.create ~shards ~queue_bound
      ~config:(make_check_config ~quorum) cloud
  in
  let ledger_oc =
    Option.map
      (fun path ->
        try open_out path
        with Sys_error msg ->
          prerr_endline ("error: " ^ msg);
          exit Exit_code.error)
      ledger_path
  in
  let ledger =
    Option.map (fun oc -> Mc_ledger.create ~sink:(output_string oc) ()) ledger_oc
  in
  let with_input k =
    match requests_path with
    | None | Some "-" -> k stdin
    | Some path -> (
        match open_in path with
        | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> k ic)
        | exception Sys_error msg ->
            prerr_endline ("error: " ^ msg);
            exit Exit_code.error)
  in
  with_input @@ fun ic ->
  let lineno = ref 0 in
  let next () =
    match input_line ic with
    | exception End_of_file -> None
    | l ->
        incr lineno;
        Some l
  in
  let started = Unix.gettimeofday () in
  let sv, stats =
    if stream then begin
      (* Streaming mode: one compact JSON reply per line, as it happens,
         in the bytes the session encoded once for the ledger too. *)
      let sink line =
        print_string line;
        flush stdout
      in
      let sv = Mc_engine.Serve.run ~window ?ledger ~sink engine ~next in
      (sv, Mc_engine.stats engine)
    end
    else begin
      (* Batch mode: the whole file goes in flight at once (an unbounded
         window — the engine's queue bound is the only backpressure, as
         before) and the ordered replies print at the end. *)
      let replies = ref [] in
      let emit reply =
        match reply with
        | Wire.Resp _ -> replies := reply :: !replies
        | Wire.Invalid { i_error; _ } ->
            prerr_endline
              (Printf.sprintf "error: line %d: %s" !lineno i_error);
            replies := reply :: !replies
        | Wire.Busy _ | Wire.Draining _ ->
            (* Retried internally; the stats line reports the volume. *)
            ()
      in
      let sv = Mc_engine.Serve.run ~window:max_int ?ledger ~emit engine ~next in
      let stats = Mc_engine.stats engine in
      let replies = List.rev !replies in
      if json then
        print_endline
          (Mc_util.Json.to_string_pretty
             (Mc_util.Json.List (List.map Wire.reply_to_json replies)))
      else begin
        List.iter
          (fun r ->
            match r with
            | Wire.Invalid _ -> ()
            | r -> print_endline (reply_line r))
          replies;
        Printf.printf
          "served %d request(s) in %.3fs real: %d coalesced, %d serviced, \
           %d busy, max queue depth %d\n"
          sv.Mc_engine.Serve.sv_requests
          (Unix.gettimeofday () -. started)
          stats.Mc_engine.st_coalesced stats.Mc_engine.st_completed
          sv.Mc_engine.Serve.sv_busy stats.Mc_engine.st_max_queue_depth
      end;
      (sv, stats)
    end
  in
  Mc_engine.drain engine;
  Option.iter close_out ledger_oc;
  if stream then
    Printf.eprintf
      "# served %d request(s) in %.3fs real: %d response(s), %d busy, %d \
       retr%s, %d invalid, %d coalesced, max in-flight %d\n%!"
      sv.Mc_engine.Serve.sv_requests
      (Unix.gettimeofday () -. started)
      sv.Mc_engine.Serve.sv_responses sv.Mc_engine.Serve.sv_busy
      sv.Mc_engine.Serve.sv_retries
      (if sv.Mc_engine.Serve.sv_retries = 1 then "y" else "ies")
      sv.Mc_engine.Serve.sv_invalid stats.Mc_engine.st_coalesced
      sv.Mc_engine.Serve.sv_max_inflight;
  (match (ledger, ledger_path) with
  | Some l, Some path ->
      let note =
        Printf.sprintf "ledger: %d entr%s -> %s, head %s" (Mc_ledger.length l)
          (if Mc_ledger.length l = 1 then "y" else "ies")
          path (Mc_ledger.head l)
      in
      if stream || json then Printf.eprintf "# %s\n%!" note
      else print_endline note
  | _ -> ());
  Exit_code.exit_with sv.Mc_engine.Serve.sv_exit

let serve_cmd =
  let doc =
    "Run check/survey/lists requests through the long-lived checking \
     engine (sharded dispatchers, coalescing, shared caches) -- as a batch, \
     or as a streaming session with windowed backpressure."
  in
  let requests_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "requests" ] ~docv:"FILE"
          ~doc:
            "Request file: one request per line, \
             'kind vm module [priority]' with '-' for unused fields. \
             Kinds: check, survey, lists; priorities: high, normal \
             (default), low. '#' starts a comment. Omit (or pass '-') \
             to read from stdin.")
  in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Streaming session: emit one JSON reply line per request as \
             it completes (JSONL, schema-tagged), with Busy/Draining/\
             Invalid answered on the wire; the summary goes to stderr. \
             Without it, replies are collected and printed as a batch.")
  in
  let window_arg =
    Arg.(
      value & opt positive_conv 32
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Streaming backpressure window: at most N requests in \
             flight; the oldest settles before the next is admitted.")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append one hash-chained attestation entry per response to \
             FILE (verify offline with $(b,modchecker ledger verify)).")
  in
  let shards_arg =
    Arg.(value & opt positive_conv 2 & info [ "shards" ] ~docv:"N"
         ~doc:"Dispatcher shards: the engine's worker domains, each \
               servicing its own requests one at a time.")
  in
  let queue_bound_arg =
    Arg.(value & opt positive_conv 64 & info [ "queue-bound" ] ~docv:"N"
         ~doc:"Admission bound on queued requests (backpressure).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ verbose_arg $ pool_arg $ requests_arg $ stream_arg
      $ window_arg $ ledger_arg $ shards_arg $ queue_bound_arg
      $ infect_arg $ fault_spec_arg $ quorum_arg $ json_arg $ trace_arg $ metrics_arg)

(* --- ledger -------------------------------------------------------------- *)

let run_ledger_verify path expect_head json =
  match Mc_ledger.verify_file ?expect_head path with
  | Ok s ->
      if json then
        print_endline
          (Mc_util.Json.to_string_pretty
             (Mc_util.Json.Obj
                [
                  ("entries", Mc_util.Json.Int s.Mc_ledger.sum_entries);
                  ("head", Mc_util.Json.String s.Mc_ledger.sum_head);
                  ( "verdicts",
                    Mc_util.Json.Obj
                      (List.map
                         (fun (k, n) -> (k, Mc_util.Json.Int n))
                         s.Mc_ledger.sum_verdicts) );
                  ("root_changes", Mc_util.Json.Int s.Mc_ledger.sum_root_changes);
                ]))
      else begin
        Printf.printf "ledger OK: %d entr%s, head %s\n"
          s.Mc_ledger.sum_entries
          (if s.Mc_ledger.sum_entries = 1 then "y" else "ies")
          s.Mc_ledger.sum_head;
        List.iter
          (fun (k, n) -> Printf.printf "  %-10s %d\n" k n)
          s.Mc_ledger.sum_verdicts;
        if s.Mc_ledger.sum_root_changes > 0 then
          Printf.printf "  root changes: %d\n" s.Mc_ledger.sum_root_changes
      end
  | Error e ->
      prerr_endline
        (Printf.sprintf "ledger verification FAILED at entry %d: %s"
           e.Mc_ledger.ve_index e.Mc_ledger.ve_reason);
      exit Exit_code.error

let ledger_cmd =
  let doc = "Attestation-ledger operations (offline audit)." in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Serialized ledger: one compact JSON entry per line.")
  in
  let expect_head_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-head" ] ~docv:"HEX"
          ~doc:
            "Externally pinned head hash; a chain that verifies but ends \
             elsewhere (e.g. truncated) fails.")
  in
  let verify =
    let doc =
      "Re-derive the hash chain from genesis and report the first bad \
       entry, if any."
    in
    Cmd.v
      (Cmd.info "verify" ~doc)
      Term.(const run_ledger_verify $ file_arg $ expect_head_arg $ json_arg)
  in
  Cmd.group (Cmd.info "ledger" ~doc) [ verify ]

(* --- disasm --------------------------------------------------------------- *)

let run_disasm pool module_name func count =
  let cloud = make_cloud pool in
  let vm = pool.vm in
  let dom = Cloud.vm cloud vm in
  let vmi =
    Mc_vmi.Vmi.init dom
      (Mc_vmi.Symbols.of_variant
         (Mc_winkernel.Kernel.os_variant (Mc_hypervisor.Dom.kernel_exn dom)))
  in
  match Modchecker.Searcher.fetch vmi ~name:module_name with
  | None ->
      prerr_endline ("module not found: " ^ module_name);
      exit Exit_code.error
  | Some (info, buf) ->
      let rva =
        match func with
        | None -> (
            match Mc_pe.Read.parse ~layout:Memory buf with
            | Ok image -> image.optional_header.address_of_entry_point
            | Error _ -> 0x1000)
        | Some name -> (
            match
              List.assoc_opt name
                (Mc_pe.Catalog.symbols (Mc_pe.Catalog.image module_name))
            with
            | Some rva -> rva
            | None ->
                prerr_endline ("unknown function: " ^ name);
                exit Exit_code.error)
      in
      Printf.printf "%s!%s in Dom%d at 0x%08x:\n" module_name
        (Option.value ~default:"<entry>" func)
        (vm + 1)
        (info.Modchecker.Searcher.mi_base + rva);
      print_string
        (Mc_pe.Codegen.listing ~base:info.Modchecker.Searcher.mi_base buf
           ~start:rva ~count)

let disasm_cmd =
  let doc = "Disassemble a function of a guest's in-memory module over VMI." in
  let func_arg =
    Arg.(value & opt (some string) None
         & info [ "f"; "function" ] ~docv:"NAME"
             ~doc:"Function name (from the module's symbols); defaults to \
                   the entry point.")
  in
  let count_arg =
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"COUNT"
         ~doc:"Instructions to decode.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc)
    Term.(
      const run_disasm $ pool_arg $ module_arg $ func_arg $ count_arg)

(* --- simtest ------------------------------------------------------------- *)

let run_simtest verbose seed steps campaigns keep_going break_checker
    shrink_budget quorum federation require_coverage script transcript_out =
  setup_logs verbose;
  (* Thousands of deliberate infections later, per-alarm warnings are
     noise; the transcript and the oracle's verdict are the output. *)
  if not verbose then Logs.set_level (Some Logs.Error);
  let write_transcript t =
    match transcript_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc t;
        close_out oc
  in
  if federation then begin
    let r =
      Mc_simtest.Fedsim.run_campaigns ~keep_going ~shrink_budget ~seed
        ~steps ~campaigns ()
    in
    write_transcript r.Mc_simtest.Fedsim.fc_transcript;
    Printf.printf "%d federation campaign(s), %d sweep(s), %d failure(s)\n"
      r.Mc_simtest.Fedsim.fc_campaigns r.Mc_simtest.Fedsim.fc_sweeps
      (List.length r.Mc_simtest.Fedsim.fc_failures);
    List.iter
      (fun f -> print_endline (Mc_simtest.Fedsim.render_failure f))
      r.Mc_simtest.Fedsim.fc_failures;
    exit
      (if r.Mc_simtest.Fedsim.fc_failures = [] then Exit_code.ok
       else Exit_code.error)
  end;
  match script with
  | Some path ->
      (* Replay an explicit scenario (e.g. a shrunk failure) without the
         generator. *)
      let ic =
        try open_in path
        with Sys_error msg ->
          prerr_endline ("error: " ^ msg);
          exit Exit_code.error
      in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Mc_simtest.Event.scenario_of_script src with
      | Error e ->
          prerr_endline (Printf.sprintf "error: %s: %s" path e);
          exit Exit_code.error
      | Ok sc -> (
          let r = Mc_simtest.replay ~break_checker ?quorum sc in
          write_transcript r.Mc_simtest.Runner.r_transcript;
          match r.Mc_simtest.Runner.r_failure with
          | None ->
              Printf.printf "replay ok: %d events applied, %d skipped\n"
                r.Mc_simtest.Runner.r_applied r.Mc_simtest.Runner.r_skipped;
              exit Exit_code.ok
          | Some f ->
              Printf.printf "replay FAILED at step %d: %s\n"
                f.Mc_simtest.Runner.f_step f.Mc_simtest.Runner.f_reason;
              exit Exit_code.error))
  | None ->
      let required =
        match require_coverage with
        | None -> []
        | Some "all" -> Mc_simtest.Gen.weighted_classes
        | Some spec ->
            String.split_on_char ',' spec
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
      in
      let r =
        Mc_simtest.run_campaigns ~break_checker ~keep_going
          ~shrink_budget ?quorum ~require_coverage:required ~seed ~steps
          ~campaigns ()
      in
      write_transcript r.Mc_simtest.cr_transcript;
      Printf.printf
        "%d campaign(s), %d event(s) applied, %d skipped, %d failure(s)\n"
        r.Mc_simtest.cr_campaigns r.Mc_simtest.cr_applied
        r.Mc_simtest.cr_skipped
        (List.length r.Mc_simtest.cr_failures);
      if required <> [] then
        Printf.printf "coverage: %d/%d required class(es) fired\n"
          (List.length required - List.length r.Mc_simtest.cr_starved)
          (List.length required);
      if r.Mc_simtest.cr_starved <> [] then begin
        Printf.printf
          "STARVED generator class(es) — whole families went untested:\n";
        List.iter
          (fun k -> Printf.printf "  %s\n" k)
          r.Mc_simtest.cr_starved
      end;
      List.iter
        (fun cf -> print_string (Mc_simtest.render_failure cf))
        r.Mc_simtest.cr_failures;
      exit
        (if r.Mc_simtest.cr_failures = [] && r.Mc_simtest.cr_starved = []
         then Exit_code.ok
         else Exit_code.error)

let simtest_cmd =
  let doc =
    "Deterministic whole-system simulation testing: random scenarios \
     validated step-by-step against a ground-truth oracle."
  in
  let steps_arg =
    Arg.(value & opt int 50 & info [ "steps" ] ~docv:"K"
         ~doc:"Events per generated scenario.")
  in
  let campaigns_arg =
    Arg.(value & opt int 1 & info [ "campaign" ] ~docv:"M"
         ~doc:"Campaigns to run; campaign $(i,i) uses seed + $(i,i).")
  in
  let keep_going_arg =
    Arg.(value & flag & info [ "keep-going"; "soak" ]
         ~doc:"Soak mode: keep running after a failure instead of \
               stopping at the first one.")
  in
  let break_checker_arg =
    Arg.(value & flag & info [ "break-checker" ]
         ~doc:"Self-test: flip one byte of a cached digest mid-campaign; \
               the oracle must catch the now-lying checker.")
  in
  let shrink_budget_arg =
    Arg.(value & opt int 300 & info [ "shrink-budget" ] ~docv:"N"
         ~doc:"Candidate runs the shrinker may spend per failure \
               (0 disables shrinking).")
  in
  let sim_quorum_arg =
    Arg.(value & opt (some fraction_conv) None & info [ "quorum" ] ~docv:"FRACTION"
         ~doc:"Override the orchestrator quorum under test.")
  in
  let script_arg =
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE"
         ~doc:"Replay an explicit scenario script instead of generating \
               one (the shrinker prints failures in this format).")
  in
  let transcript_arg =
    Arg.(value & opt (some string) None & info [ "transcript" ] ~docv:"FILE"
         ~doc:"Write the deterministic run transcript to $(docv); two \
               runs with the same arguments produce identical files.")
  in
  let federation_arg =
    Arg.(value & flag & info [ "federation" ]
         ~doc:"Run federation campaigns instead: host outages, \
               coordinated whole-host infections, and version skew \
               against the fleet-level oracle (Fedsim).")
  in
  let require_coverage_arg =
    Arg.(value & opt (some string) None & info [ "require-coverage" ]
         ~docv:"CLASSES"
         ~doc:"Fail (exit 1) unless every named coverage class fired at \
               least once across the soak: 'all' for the generator's \
               whole universe, or a comma-separated list (e.g. \
               'evade.toctou,infect.hook'). A passing soak with a \
               starved generator proves nothing about the starved \
               family.")
  in
  Cmd.v
    (Cmd.info "simtest" ~doc)
    Term.(
      const run_simtest $ verbose_arg $ seed_arg $ steps_arg $ campaigns_arg
      $ keep_going_arg $ break_checker_arg $ shrink_budget_arg
      $ sim_quorum_arg $ federation_arg $ require_coverage_arg $ script_arg
      $ transcript_arg)

(* --- main --------------------------------------------------------------- *)

let () =
  let doc =
    "kernel module integrity checking across a pool of identical VMs \
     (reproduction of ModChecker, ICPP 2012)"
  in
  let info = Cmd.info "modchecker" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd; survey_cmd; list_cmd; detect_cmd; figures_cmd;
            patrol_cmd; health_cmd; federate_cmd; serve_cmd;
            ledger_cmd; disasm_cmd; simtest_cmd;
          ]))
