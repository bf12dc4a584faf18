module Cloud = Mc_hypervisor.Cloud
module Costs = Mc_hypervisor.Costs
module Phys = Mc_memsim.Phys
module Meter = Mc_hypervisor.Meter
module Sched = Mc_hypervisor.Sched
module Xenctl = Mc_hypervisor.Xenctl
module Pool = Mc_parallel.Pool
module Tel = Mc_telemetry.Registry
module Span = Mc_telemetry.Span

type alarm_kind =
  | Hash_deviation
  | Missing_module
  | List_discrepancy
  | Quorum_loss
  | Anchor_mismatch

type alarm = {
  at : float;
  alarm_module : string;
  alarm_vms : int list;
  kind : alarm_kind;
}

type config = {
  watch : string list;
  interval_s : float;
  costs : Costs.t;
  workers : int;
  compare_lists : bool;
  incremental : bool;
  audit_anchors : bool;
  check : Orchestrator.Config.t;
}

let default_config =
  {
    watch = Mc_pe.Catalog.standard_modules;
    interval_s = 30.0;
    costs = Costs.default;
    workers = 1;
    compare_lists = true;
    incremental = false;
    audit_anchors = false;
    check = Orchestrator.Config.default;
  }

type outcome = {
  alarms : alarm list;
  sweeps : int;
  reactions : int;
  virtual_elapsed : float;
  cpu_spent : float;
  mean_sweep_wall : float;
  sweep_cpus : float list;
  latencies_s : float list;
}

type sweep_work = {
  sw_surveys : (string * Report.survey * Meter.t) list;
  sw_lists : (Orchestrator.list_comparison * Meter.t) option;
  sw_anchors : (string * int) list;
  sw_overhead : Meter.t option;
}

type driver = unit -> sweep_work

let alarm_kind_string = function
  | Hash_deviation -> "hash deviation"
  | Missing_module -> "missing module"
  | List_discrepancy -> "module-list discrepancy"
  | Quorum_loss -> "quorum loss"
  | Anchor_mismatch -> "merkle anchor mismatch"

let alarm_kind_key = function
  | Hash_deviation -> "hash_deviation"
  | Missing_module -> "missing_module"
  | List_discrepancy -> "list_discrepancy"
  | Quorum_loss -> "quorum_loss"
  | Anchor_mismatch -> "anchor_mismatch"

(* Keep log-dirty tracking armed on every guest. A reboot or restore
   replaces the guest's physical memory (new epoch) with tracking off, so
   re-arm whenever a VM's epoch moved; the hypercalls are metered. *)
let ensure_log_dirty meter epochs cloud =
  List.iter
    (fun vm ->
      let dom = Cloud.vm cloud vm in
      let e = Xenctl.memory_epoch dom in
      match Hashtbl.find_opt epochs vm with
      | Some e' when e' = e -> ()
      | _ ->
          Xenctl.enable_log_dirty ~meter dom;
          Hashtbl.replace epochs vm e)
    (List.init (Cloud.vm_count cloud) Fun.id)

(* Turn one sweep's survey and list-comparison results into alarms. A
   degraded survey raises the distinct availability alarm and nothing
   else — a degraded sweep must never be dressed up as an integrity
   finding. *)
let alarms_of_work config work =
  let sweep_alarms = ref [] in
  List.iter
    (fun (module_name, s, _) ->
      match s.Report.s_verdict with
      | Report.Degraded _ ->
          sweep_alarms :=
            {
              at = 0.0;
              alarm_module = module_name;
              alarm_vms = List.map fst s.Report.unreachable_on;
              kind = Quorum_loss;
            }
            :: !sweep_alarms
      | Report.Intact | Report.Infected ->
          if s.Report.deviant_vms <> [] then
            sweep_alarms :=
              {
                at = 0.0;
                alarm_module = module_name;
                alarm_vms = s.Report.deviant_vms;
                kind = Hash_deviation;
              }
              :: !sweep_alarms;
          if s.Report.missing_on <> [] then
            sweep_alarms :=
              {
                at = 0.0;
                alarm_module = module_name;
                alarm_vms = s.Report.missing_on;
                kind = Missing_module;
              }
              :: !sweep_alarms)
    work.sw_surveys;
  (match work.sw_lists with
  | None -> ()
  | Some (comparison, _) ->
      (match comparison.Orchestrator.lc_unreachable with
      | [] -> ()
      | unreachable ->
          sweep_alarms :=
            {
              at = 0.0;
              alarm_module = "(module lists)";
              alarm_vms = List.map fst unreachable;
              kind = Quorum_loss;
            }
            :: !sweep_alarms);
      List.iter
        (fun (d : Orchestrator.list_discrepancy) ->
          (* Only alarm on list entries we are not already alarming on as
             a missing watched module. *)
          if not (List.mem d.Orchestrator.ld_module config.watch) then
            sweep_alarms :=
              {
                at = 0.0;
                alarm_module = d.Orchestrator.ld_module;
                alarm_vms = d.Orchestrator.missing_on;
                kind = List_discrepancy;
              }
              :: !sweep_alarms)
        comparison.Orchestrator.lc_discrepancies);
  List.iter
    (fun (module_name, vm) ->
      sweep_alarms :=
        {
          at = 0.0;
          alarm_module = module_name;
          alarm_vms = [ vm ];
          kind = Anchor_mismatch;
        }
        :: !sweep_alarms)
    work.sw_anchors;
  !sweep_alarms

(* Price one batch of checking work: total Dom0 CPU plus the virtual wall
   time it takes under the current guest load. Each meter is one
   schedulable job, so multiple Dom0 workers can run them concurrently. *)
let price_work config cloud work =
  let module_costs =
    (match work.sw_overhead with
    | Some m -> [ Meter.total_cpu_seconds config.costs m ]
    | None -> [])
    @ List.map
        (fun (_, _, m) -> Meter.total_cpu_seconds config.costs m)
        work.sw_surveys
    @ (match work.sw_lists with
      | Some (_, m) -> [ Meter.total_cpu_seconds config.costs m ]
      | None -> [])
  in
  let cpu = List.fold_left ( +. ) 0.0 module_costs in
  let bus =
    Sched.bus_factor config.costs ~busy_vms:(Cloud.busy_vms cloud)
      ~cores:cloud.Cloud.cores
  in
  let wall =
    Sched.run_jobs ~cores:cloud.Cloud.cores
      ~busy_guest_vcpus:(Cloud.busy_guest_vcpus cloud)
      ~workers:config.workers
      (List.map (fun c -> c *. bus) module_costs)
  in
  (cpu, wall)

let run_driven ?(config = default_config) ?(events = []) cloud ~until driver =
  let clock = ref 0.0 in
  let cpu = ref 0.0 in
  let sweeps = ref 0 in
  let walls = ref [] in
  let sweep_cpus = ref [] in
  let alarms = ref [] in
  let pending = ref (List.sort (fun (a, _) (b, _) -> compare a b) events) in
  while !clock < until do
    (* Fire events whose time has come before this sweep observes the
       cloud. *)
    let rec fire () =
      match !pending with
      | (t, f) :: rest when t <= !clock ->
          f cloud;
          pending := rest;
          fire ()
      | _ -> ()
    in
    fire ();
    let sweep_started = !clock in
    let wall, sweep_cpu, sweep_alarms =
      Tel.with_span
        ~attrs:
          [ ("sweep", Int (!sweeps + 1)); ("virtual_start_s", Float sweep_started) ]
        "patrol_sweep"
      @@ fun sp ->
      let work = driver () in
      let sweep_alarms = alarms_of_work config work in
      (* Price the sweep and advance the virtual clock under current
         load. *)
      let sweep_cpu, wall = price_work config cloud work in
      Span.set_virtual sp ~start:sweep_started ~finish:(sweep_started +. wall);
      Span.set_attr sp "alarms" (Int (List.length sweep_alarms));
      Span.set_attr sp "cpu_s" (Float sweep_cpu);
      (wall, sweep_cpu, sweep_alarms)
    in
    if Tel.enabled () then begin
      Tel.add "patrol.sweeps" 1;
      Tel.observe "patrol.sweep_wall_virtual_s" wall;
      List.iter
        (fun a -> Tel.add ("patrol.alarms." ^ alarm_kind_key a.kind) 1)
        sweep_alarms
    end;
    cpu := !cpu +. sweep_cpu;
    sweep_cpus := sweep_cpu :: !sweep_cpus;
    walls := wall :: !walls;
    incr sweeps;
    clock := sweep_started +. wall;
    Log.debug (fun m ->
        m "patrol sweep %d at t=%.1fs: %.1f ms wall, %d alarm(s)" !sweeps
          sweep_started (wall *. 1e3)
          (List.length sweep_alarms));
    List.iter
      (fun a ->
        Log.warn (fun m ->
            m "patrol alarm at t=%.1fs: %s on %s (VMs %s)" !clock
              (alarm_kind_string a.kind) a.alarm_module
              (String.concat ","
                 (List.map (fun v -> string_of_int (v + 1)) a.alarm_vms))))
      sweep_alarms;
    alarms :=
      List.rev_append
        (List.rev_map (fun a -> { a with at = !clock }) sweep_alarms)
        !alarms;
    (* Sleep until the next interval boundary (if the sweep overran the
       interval, start again immediately). *)
    let next_start = sweep_started +. config.interval_s in
    if next_start > !clock then clock := next_start
  done;
  (* Events scheduled between the final sweep's start and [until] still
     belong to this patrol window: fire them so the schedule is fully
     applied. Without this, an infection staged near [until] silently
     never happens and reads as a false "no detection" — the caller must
     observe "happened but not detected in time" instead. *)
  let rec fire_rest () =
    match !pending with
    | (t, f) :: rest when t <= until ->
        f cloud;
        pending := rest;
        fire_rest ()
    | _ -> ()
  in
  fire_rest ();
  {
    alarms = List.rev !alarms;
    sweeps = !sweeps;
    reactions = 0;
    virtual_elapsed = !clock;
    cpu_spent = !cpu;
    mean_sweep_wall = Mc_util.Stats.mean !walls;
    sweep_cpus = List.rev !sweep_cpus;
    latencies_s = [];
  }

let run ?(config = default_config) ?(events = []) cloud ~until =
  let incremental =
    if config.incremental then Some (Orchestrator.create_incremental ())
    else None
  in
  let epochs = Hashtbl.create 16 in
  let with_mode f =
    if config.workers > 1 then
      Pool.with_pool config.workers (fun pool -> f (Orchestrator.Parallel pool))
    else f Orchestrator.Sequential
  in
  with_mode @@ fun mode ->
  let check =
    config.check
    |> Orchestrator.Config.with_mode mode
    |>
    match incremental with
    | Some inc -> Orchestrator.Config.with_incremental inc
    | None -> Fun.id
  in
  let driver () =
    let sw_overhead =
      match incremental with
      | None -> None
      | Some _ ->
          (* Arm/drain the log-dirty machinery; this Dom0 overhead is a
             schedulable job like any survey, so it is priced into the
             sweep. *)
          let m = Meter.create () in
          ensure_log_dirty m epochs cloud;
          List.iter
            (fun vm ->
              let dirty = Xenctl.clean_dirty ~meter:m (Cloud.vm cloud vm) in
              if Tel.enabled () then
                Tel.add "vmi.pages_dirty" (List.length dirty))
            (List.init (Cloud.vm_count cloud) Fun.id);
          Some m
    in
    let sw_surveys =
      List.map
        (fun module_name ->
          let meter = Meter.create () in
          let s = Orchestrator.survey ~config:check ~meter cloud ~module_name in
          (module_name, s, meter))
        config.watch
    in
    let sw_lists =
      if config.compare_lists then begin
        (* The list walks are real introspection work: meter them and
           fold their cost into the sweep like any surveyed module. *)
        let m = Meter.create () in
        Some (Orchestrator.survey_module_lists ~config:check ~meter:m cloud, m)
      end
      else None
    in
    let sw_anchors =
      (* Cross-check the two Dom0 read channels over the footprints the
         surveys just cached. Needs the incremental caches — without
         them there is no footprint to vouch for. *)
      match incremental with
      | Some inc when config.audit_anchors ->
          let m = match sw_overhead with Some m -> m | None -> Meter.create () in
          Orchestrator.audit_anchors ~meter:m inc cloud ~watch:config.watch
      | _ -> []
    in
    { sw_surveys; sw_lists; sw_anchors; sw_overhead }
  in
  run_driven ~config ~events cloud ~until driver

(* --- event-driven checking --------------------------------------------- *)

module Events = struct
  type reaction = {
    rx_work : sweep_work;
    rx_alarms : alarm list;
    rx_wall : float;
    rx_cpu : float;
    rx_traps : int;
    rx_latencies : float list;
  }

  type session = {
    es_config : config;
    es_cloud : Cloud.t;
    es_inc : Orchestrator.incremental;
    es_survey : high:bool -> string -> string * Report.survey * Meter.t;
    es_lists :
      high:bool -> unit -> (Orchestrator.list_comparison * Meter.t) option;
    es_epochs : (int, int) Hashtbl.t;
        (** vm → memory epoch its watches were armed in. *)
    es_armed : (int, (int, unit) Hashtbl.t) Hashtbl.t;
        (** vm → pfns Dom0 believes are armed. Exact: only traps disarm,
            and every trap is observed when its event is drained. *)
    es_map : (int, (int, Orchestrator.watch_source list) Hashtbl.t) Hashtbl.t;
        (** vm → pfn → the watch sources that page was backing when
            armed. *)
  }

  let create ?(config = default_config) ~inc ~survey ~lists cloud =
    {
      es_config = config;
      es_cloud = cloud;
      es_inc = inc;
      es_survey = survey;
      es_lists = lists;
      es_epochs = Hashtbl.create 16;
      es_armed = Hashtbl.create 16;
      es_map = Hashtbl.create 16;
    }

  let vms s = List.init (Cloud.vm_count s.es_cloud) Fun.id

  let set_now s now =
    List.iter
      (fun vm -> Xenctl.set_trap_clock (Cloud.vm s.es_cloud vm) now)
      (vms s)

  let armed_set s vm =
    match Hashtbl.find_opt s.es_armed vm with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 64 in
        Hashtbl.replace s.es_armed vm set;
        set

  (* Re-derive the wanted pfn→source map from the digest caches' current
     footprints and arm exactly the delta: pages newly backing something
     watched (or disarmed by their trap) get protected, pages no longer
     backing anything watched get released. A VM whose footprints did not
     move issues no hypercall at all. *)
  let rearm_vm s meter vm =
    let dom = Cloud.vm s.es_cloud vm in
    let sources =
      Orchestrator.watch_pfns s.es_inc dom ~vm ~watch:s.es_config.watch
    in
    let map = Hashtbl.create 64 in
    List.iter
      (fun (src, pfns) ->
        List.iter
          (fun pfn ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt map pfn) in
            if not (List.mem src cur) then Hashtbl.replace map pfn (src :: cur))
          pfns)
      sources;
    Hashtbl.replace s.es_map vm map;
    let armed = armed_set s vm in
    let to_arm =
      Hashtbl.fold
        (fun pfn _ acc -> if Hashtbl.mem armed pfn then acc else pfn :: acc)
        map []
    in
    let to_drop =
      Hashtbl.fold
        (fun pfn () acc -> if Hashtbl.mem map pfn then acc else pfn :: acc)
        armed []
    in
    if to_arm <> [] then Xenctl.watch_pages ~meter dom (List.sort compare to_arm);
    if to_drop <> [] then
      Xenctl.unwatch_pages ~meter dom (List.sort compare to_drop);
    List.iter (fun pfn -> Hashtbl.replace armed pfn ()) to_arm;
    List.iter (fun pfn -> Hashtbl.remove armed pfn) to_drop;
    Hashtbl.replace s.es_epochs vm (Xenctl.memory_epoch dom)

  let run_once s ~now ~full =
    let overhead = Meter.create () in
    (* Earliest trap time per watch source across the pool. *)
    let trap_at : (Orchestrator.watch_source, float) Hashtbl.t =
      Hashtbl.create 8
    in
    let note src at =
      match Hashtbl.find_opt trap_at src with
      | Some t when t <= at -> ()
      | _ -> Hashtbl.replace trap_at src at
    in
    let traps = ref 0 in
    List.iter
      (fun vm ->
        let dom = Cloud.vm s.es_cloud vm in
        let armed = armed_set s vm in
        let epoch_now = Xenctl.memory_epoch dom in
        (match Hashtbl.find_opt s.es_epochs vm with
        | Some e when e <> epoch_now ->
            (* Reboot/restore: the protection died silently with the old
               memory. Treat it as a trap on everything the VM was
               watching — the whole watch list gets rechecked and the VM
               re-armed on its new memory. *)
            Hashtbl.reset armed;
            Hashtbl.remove s.es_epochs vm;
            List.iter
              (fun m -> note (Orchestrator.Watch_module m) now)
              s.es_config.watch;
            note Orchestrator.Watch_lists now
        | _ -> ());
        let evs = Xenctl.drain_events ~meter:overhead dom in
        let map = Hashtbl.find_opt s.es_map vm in
        List.iter
          (fun (e : Phys.watch_event) ->
            incr traps;
            Hashtbl.remove armed e.Phys.we_pfn;
            match map with
            | None -> ()
            | Some map ->
                List.iter
                  (fun src -> note src e.Phys.we_at)
                  (Option.value ~default:[]
                     (Hashtbl.find_opt map e.Phys.we_pfn)))
          evs)
      (vms s);
    if (not full) && Hashtbl.length trap_at = 0 then None
    else begin
      let hit src = full || Hashtbl.mem trap_at src in
      let mods =
        List.filter
          (fun m -> hit (Orchestrator.Watch_module m))
          s.es_config.watch
      in
      let sw_surveys = List.map (fun m -> s.es_survey ~high:(not full) m) mods in
      let sw_lists =
        if s.es_config.compare_lists && hit Orchestrator.Watch_lists then
          s.es_lists ~high:(not full) ()
        else None
      in
      let sw_anchors =
        if s.es_config.audit_anchors then
          Orchestrator.audit_anchors ~meter:overhead s.es_inc s.es_cloud
            ~watch:mods
        else []
      in
      (* Arm (or re-arm) against the fresh footprints the surveys just
         cached; the delta hypercalls are part of this batch's cost. *)
      List.iter (fun vm -> rearm_vm s overhead vm) (vms s);
      let work = { sw_surveys; sw_lists; sw_anchors; sw_overhead = Some overhead } in
      let raw = alarms_of_work s.es_config work in
      let cpu, wall = price_work s.es_config s.es_cloud work in
      let finish = now +. wall in
      let rx_alarms = List.map (fun a -> { a with at = finish }) raw in
      let latency_source a =
        match a.kind with
        | List_discrepancy -> Orchestrator.Watch_lists
        | _ -> Orchestrator.Watch_module a.alarm_module
      in
      let rx_latencies =
        List.filter_map
          (fun a ->
            match a.kind with
            | Quorum_loss -> None
            | Hash_deviation | Missing_module | List_discrepancy
            | Anchor_mismatch -> (
                (* Detection latency: guest write (the trap's timestamp)
                   to alarm. An alarm with no trap behind it (a safety
                   sweep catching something watches missed) has no
                   defined latency. *)
                match Hashtbl.find_opt trap_at (latency_source a) with
                | Some t -> Some (finish -. t)
                | None -> None))
          rx_alarms
      in
      if Tel.enabled () then
        List.iter
          (fun l -> Tel.observe "patrol.detection_latency_s" l)
          rx_latencies;
      Some
        {
          rx_work = work;
          rx_alarms;
          rx_wall = wall;
          rx_cpu = cpu;
          rx_traps = !traps;
          rx_latencies;
        }
    end

  let baseline s ~now = Option.get (run_once s ~now ~full:true)

  let react s ~now = run_once s ~now ~full:false
end

let run_events_driven ?(config = default_config) ?(events = []) ?full_every_s
    cloud ~until session =
  let full_every =
    match full_every_s with
    | Some f -> f
    | None -> 20.0 *. config.interval_s
  in
  if full_every <= 0.0 then
    invalid_arg "Patrol.run_events_driven: full_every_s must be positive";
  let clock = ref 0.0 in
  let cpu = ref 0.0 in
  let sweeps = ref 0 in
  let reactions = ref 0 in
  let walls = ref [] in
  let sweep_cpus = ref [] in
  let alarms = ref [] in
  let latencies = ref [] in
  let pending = ref (List.sort (fun (a, _) (b, _) -> compare a b) events) in
  let absorb ~sweep ~now (r : Events.reaction) =
    cpu := !cpu +. r.Events.rx_cpu;
    walls := r.Events.rx_wall :: !walls;
    if sweep then begin
      incr sweeps;
      sweep_cpus := r.Events.rx_cpu :: !sweep_cpus
    end
    else incr reactions;
    latencies := List.rev_append (List.rev r.Events.rx_latencies) !latencies;
    alarms := List.rev_append (List.rev r.Events.rx_alarms) !alarms;
    if Tel.enabled () then begin
      if sweep then Tel.add "patrol.sweeps" 1 else Tel.add "patrol.reactions" 1;
      Tel.observe "patrol.sweep_wall_virtual_s" r.Events.rx_wall;
      List.iter
        (fun a -> Tel.add ("patrol.alarms." ^ alarm_kind_key a.kind) 1)
        r.Events.rx_alarms
    end;
    Log.debug (fun m ->
        m "patrol %s at t=%.1fs: %.2f ms wall, %d trap(s), %d alarm(s)"
          (if sweep then "sweep" else "reaction")
          now
          (r.Events.rx_wall *. 1e3)
          r.Events.rx_traps
          (List.length r.Events.rx_alarms));
    List.iter
      (fun a ->
        Log.warn (fun m ->
            m "patrol alarm at t=%.3fs: %s on %s (VMs %s)" a.at
              (alarm_kind_string a.kind) a.alarm_module
              (String.concat ","
                 (List.map (fun v -> string_of_int (v + 1)) a.alarm_vms))))
      r.Events.rx_alarms;
    clock := Float.max !clock (now +. r.Events.rx_wall)
  in
  let next_full = ref 0.0 in
  let fire_event te =
    Events.set_now session te;
    let rec fire () =
      match !pending with
      | (t, f) :: rest when t <= te ->
          f cloud;
          pending := rest;
          fire ()
      | _ -> ()
    in
    fire ();
    match Events.react session ~now:te with
    | None -> clock := Float.max !clock te
    | Some r -> absorb ~sweep:false ~now:te r
  in
  let full_sweep tf =
    Events.set_now session tf;
    let r = Events.baseline session ~now:tf in
    absorb ~sweep:true ~now:tf r;
    next_full := tf +. full_every
  in
  let rec loop () =
    let t_ev =
      match !pending with (t, _) :: _ when t <= until -> Some t | _ -> None
    in
    let t_full = if !next_full < until then Some !next_full else None in
    match (t_ev, t_full) with
    | None, None -> ()
    | Some te, Some tf when te < tf ->
        fire_event te;
        loop ()
    | _, Some tf ->
        full_sweep tf;
        loop ()
    | Some te, None ->
        fire_event te;
        loop ()
  in
  loop ();
  clock := Float.max !clock until;
  {
    alarms = List.rev !alarms;
    sweeps = !sweeps;
    reactions = !reactions;
    virtual_elapsed = !clock;
    cpu_spent = !cpu;
    mean_sweep_wall = Mc_util.Stats.mean !walls;
    sweep_cpus = List.rev !sweep_cpus;
    latencies_s = List.rev !latencies;
  }

let run_events ?(config = default_config) ?(events = []) ?full_every_s cloud
    ~until =
  let inc =
    match config.check.Orchestrator.Config.incremental with
    | Some inc -> inc
    | None -> Orchestrator.create_incremental ()
  in
  let with_mode f =
    if config.workers > 1 then
      Pool.with_pool config.workers (fun pool -> f (Orchestrator.Parallel pool))
    else f Orchestrator.Sequential
  in
  with_mode @@ fun mode ->
  (* Event-driven checking is incremental by construction: watches are
     armed from the digest caches' footprints, so those caches must be
     populated — and the Merkle prints carry the page→leaf index that
     makes the post-trap refresh O(dirty). *)
  let check =
    config.check
    |> Orchestrator.Config.with_mode mode
    |> Orchestrator.Config.with_incremental inc
  in
  let config = { config with incremental = true; check } in
  let survey ~high:_ module_name =
    let meter = Meter.create () in
    let s = Orchestrator.survey ~config:check ~meter cloud ~module_name in
    (module_name, s, meter)
  in
  let lists ~high:_ () =
    let m = Meter.create () in
    Some (Orchestrator.survey_module_lists ~config:check ~meter:m cloud, m)
  in
  let session = Events.create ~config ~inc ~survey ~lists cloud in
  run_events_driven ~config ~events ?full_every_s cloud ~until session

let to_json o =
  let open Mc_util.Json in
  Obj
    [
      ("sweeps", Int o.sweeps);
      ("reactions", Int o.reactions);
      ("virtual_elapsed_s", Float o.virtual_elapsed);
      ("cpu_spent_s", Float o.cpu_spent);
      ("mean_sweep_wall_s", Float o.mean_sweep_wall);
      ("sweep_cpus_s", List (List.map (fun c -> Float c) o.sweep_cpus));
      ("detection_latencies_s", List (List.map (fun l -> Float l) o.latencies_s));
      ( "alarms",
        List
          (List.map
             (fun a ->
               Obj
                 [
                   ("at_s", Float a.at);
                   ("kind", String (alarm_kind_string a.kind));
                   ("module", String a.alarm_module);
                   ("vms", List (List.map (fun v -> Int v) a.alarm_vms));
                 ])
             o.alarms) );
    ]

let time_to_detect outcome ~module_name ~infected_at =
  List.find_map
    (fun a ->
      (* Only integrity findings count as detection. A Quorum_loss (a
         degraded sweep) or List_discrepancy happening to name the same
         module is not evidence the infection was seen — counting one
         made a fault burst preceding the real detection look like an
         instant catch. *)
      match a.kind with
      | Hash_deviation | Missing_module | Anchor_mismatch ->
          (* Anchor mismatches count: catching the shim that hides an
             infection is catching the compromise. *)
          if a.alarm_module = module_name && a.at >= infected_at then
            Some (a.at -. infected_at)
          else None
      | List_discrepancy | Quorum_loss -> None)
    outcome.alarms
