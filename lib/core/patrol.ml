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

type trigger = Poll | Traps

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

(* Turn one sweep's survey and list-comparison results into alarms. A
   degraded survey raises the distinct availability alarm and nothing
   else — a degraded sweep must never be dressed up as an integrity
   finding. *)
let alarms_of_work config work =
  let sweep_alarms = ref [] in
  let raise_alarm alarm_module alarm_vms kind =
    sweep_alarms :=
      { at = 0.0; alarm_module; alarm_vms; kind } :: !sweep_alarms
  in
  List.iter
    (fun (module_name, s, _) ->
      match s.Report.s_verdict with
      | Report.Degraded _ ->
          raise_alarm module_name (List.map fst s.Report.unreachable_on)
            Quorum_loss
      | Report.Intact | Report.Infected ->
          if s.Report.deviant_vms <> [] then
            raise_alarm module_name s.Report.deviant_vms Hash_deviation;
          if s.Report.missing_on <> [] then
            raise_alarm module_name s.Report.missing_on Missing_module)
    work.sw_surveys;
  (match work.sw_lists with
  | None -> ()
  | Some (comparison, _) ->
      (match comparison.Orchestrator.lc_unreachable with
      | [] -> ()
      | unreachable ->
          raise_alarm "(module lists)" (List.map fst unreachable) Quorum_loss);
      List.iter
        (fun (d : Orchestrator.list_discrepancy) ->
          (* Only alarm on list entries we are not already alarming on as
             a missing watched module. *)
          if not (List.mem d.Orchestrator.ld_module config.watch) then
            raise_alarm d.Orchestrator.ld_module d.Orchestrator.missing_on
              List_discrepancy)
        comparison.Orchestrator.lc_discrepancies);
  List.iter
    (fun (module_name, vm) -> raise_alarm module_name [ vm ] Anchor_mismatch)
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

(* --- sessions: the checking work of one sweep or reaction -------------- *)

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
    es_sources : (int, (Orchestrator.watch_source * int list) list) Hashtbl.t;
        (** vm → the per-source footprint pfns its map was derived
            from. *)
    es_gens : (int, int * int) Hashtbl.t;
        (** vm → the (Merkle, list) digest-cache generations its map was
            derived from. *)
    es_dirty_epochs : (int, int) Hashtbl.t;
        (** vm → memory epoch log-dirty tracking was enabled in (polling
            sweeps of an incremental session). *)
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
      es_sources = Hashtbl.create 16;
      es_gens = Hashtbl.create 16;
      es_dirty_epochs = Hashtbl.create 16;
    }

  let in_process ?(config = default_config) cloud =
    let inc =
      match config.check.Orchestrator.Config.incremental with
      | Some inc -> inc
      | None -> Orchestrator.create_incremental ()
    in
    let check =
      if config.incremental then
        Orchestrator.Config.with_incremental inc config.check
      else config.check
    in
    let survey ~high:_ module_name =
      let meter = Meter.create () in
      let s = Orchestrator.survey ~config:check ~meter cloud ~module_name in
      (module_name, s, meter)
    in
    let lists ~high:_ () =
      (* The list walks are real introspection work: meter them and fold
         their cost into the sweep like any surveyed module. *)
      let m = Meter.create () in
      Some (Orchestrator.survey_module_lists ~config:check ~meter:m cloud, m)
    in
    create ~config:{ config with check } ~inc ~survey ~lists cloud

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

  let generations s vm =
    ( Digest_cache.generation s.es_inc.Orchestrator.inc_merkle ~vm,
      Digest_cache.generation s.es_inc.Orchestrator.inc_lists ~vm )

  (* Bring the VM's pfn→source map up to its digest caches' current
     footprints and arm exactly the delta: pages newly backing something
     watched (or disarmed by their trap) get protected, pages no longer
     backing anything watched get released. A first arm or a new epoch
     derives the whole map; otherwise only the sources whose footprint
     moved are patched in, and the frames this reaction's traps disarmed
     ([trapped]) are re-armed. A VM whose footprints did not move issues
     no hypercall at all. Returns how many frames it armed and
     released. *)
  let rearm_vm s meter vm ~trapped =
    let dom = Cloud.vm s.es_cloud vm in
    let epoch = Xenctl.memory_epoch dom in
    let gens = generations s vm in
    let sources =
      Orchestrator.watch_pfns s.es_inc dom ~vm ~watch:s.es_config.watch
    in
    let armed = armed_set s vm in
    (* A first arm or a new epoch starts from an empty map with every
       source unseen, and releases whatever is still armed that the
       derived map does not want. *)
    let map, old, released =
      match (Hashtbl.find_opt s.es_map vm, Hashtbl.find_opt s.es_sources vm) with
      | Some map, Some old when Hashtbl.find_opt s.es_epochs vm = Some epoch ->
          (map, old, [])
      | _ ->
          let map = Hashtbl.create 64 in
          Hashtbl.replace s.es_map vm map;
          ( map,
            List.map (fun (src, _) -> (src, [])) sources,
            Hashtbl.fold (fun pfn () acc -> pfn :: acc) armed [] )
    in
    let released = ref released and gained = ref trapped in
    List.iter2
      (fun (src, pfns) (_, old_pfns) ->
        if pfns <> old_pfns then begin
          List.iter
            (fun pfn ->
              match Hashtbl.find_opt map pfn with
              | Some [ src' ] when src' = src ->
                  Hashtbl.remove map pfn;
                  released := pfn :: !released
              | Some srcs ->
                  Hashtbl.replace map pfn (List.filter (( <> ) src) srcs)
              | None -> ())
            old_pfns;
          List.iter
            (fun pfn ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt map pfn) in
              if not (List.mem src cur) then Hashtbl.replace map pfn (src :: cur))
            pfns;
          gained := List.rev_append pfns !gained
        end)
      sources old;
    let pick keep l = List.sort_uniq compare (List.filter keep l) in
    let to_arm =
      pick (fun pfn -> Hashtbl.mem map pfn && not (Hashtbl.mem armed pfn)) !gained
    and to_drop =
      pick (fun pfn -> Hashtbl.mem armed pfn && not (Hashtbl.mem map pfn)) !released
    in
    if to_arm <> [] then Xenctl.watch_pages ~meter dom to_arm;
    if to_drop <> [] then Xenctl.unwatch_pages ~meter dom to_drop;
    List.iter (fun pfn -> Hashtbl.replace armed pfn ()) to_arm;
    List.iter (fun pfn -> Hashtbl.remove armed pfn) to_drop;
    Hashtbl.replace s.es_sources vm sources;
    Hashtbl.replace s.es_epochs vm epoch;
    Hashtbl.replace s.es_gens vm gens;
    (List.length to_arm, List.length to_drop)

  (* Re-arm the VMs whose map inputs moved since they were last armed:
     the memory epoch (or never armed), a frame a drained trap disarmed
     ([trapped]: vm → those frames), or a digest-cache entry stored or
     dropped. Any other VM would re-derive the same map against the same
     armed set, an empty delta. *)
  let rearm s meter ~trapped =
    let moved vm =
      Hashtbl.mem trapped vm
      || Hashtbl.find_opt s.es_epochs vm
         <> Some (Xenctl.memory_epoch (Cloud.vm s.es_cloud vm))
      || Hashtbl.find_opt s.es_gens vm <> Some (generations s vm)
    in
    let due = List.filter moved (vms s) in
    Tel.with_span "patrol.rearm" (fun sp ->
        let armed, dropped =
          List.fold_left
            (fun (a, d) vm ->
              let trapped =
                Option.value ~default:[] (Hashtbl.find_opt trapped vm)
              in
              let a', d' = rearm_vm s meter vm ~trapped in
              (a + a', d + d'))
            (0, 0) due
        in
        Span.set_attr sp "vms" (Int (List.length due));
        Span.set_attr sp "armed" (Int armed);
        Span.set_attr sp "dropped" (Int dropped));
    Tel.add "patrol.rearm_vms" (List.length due)

  (* The sweep body every check shares: survey [mods] (plus the list walk
     when [lists]), audit the read channels over the footprints the
     surveys just cached, and hand back the work. The audit needs the
     incremental caches, which is exactly when a sweep carries an
     [overhead] meter — without them there is no footprint to vouch
     for. *)
  let check s ~high ~overhead ~lists mods =
    let c = s.es_config in
    let sw_surveys = List.map (s.es_survey ~high) mods in
    let sw_lists =
      if c.compare_lists && lists then s.es_lists ~high () else None
    in
    let sw_anchors =
      match overhead with
      | Some meter when c.audit_anchors ->
          Orchestrator.audit_anchors ~meter s.es_inc s.es_cloud ~watch:mods
      | _ -> []
    in
    { sw_surveys; sw_lists; sw_anchors; sw_overhead = overhead }

  (* Derive the alarms, price the work into virtual wall time, and stamp
     the alarms with the finish time. [trap_at] maps each watch source to
     its earliest trap: an integrity alarm on a trapped source gets a
     detection latency; one with no trap behind it (any polling sweep, or
     a safety sweep catching something watches missed) has none. *)
  let finish s ~now ~traps ~trap_at work =
    let raw = alarms_of_work s.es_config work in
    let cpu, wall = price_work s.es_config s.es_cloud work in
    let finish = now +. wall in
    let rx_alarms = List.map (fun a -> { a with at = finish }) raw in
    let rx_latencies =
      List.filter_map
        (fun a ->
          let source =
            match a.kind with
            | Quorum_loss -> None
            | List_discrepancy -> Some Orchestrator.Watch_lists
            | Hash_deviation | Missing_module | Anchor_mismatch ->
                Some (Orchestrator.Watch_module a.alarm_module)
          in
          Option.bind source (Hashtbl.find_opt trap_at)
          |> Option.map (fun t -> finish -. t))
        rx_alarms
    in
    if Tel.enabled () then
      List.iter
        (fun l -> Tel.observe "patrol.detection_latency_s" l)
        rx_latencies;
    {
      rx_work = work;
      rx_alarms;
      rx_wall = wall;
      rx_cpu = cpu;
      rx_traps = traps;
      rx_latencies;
    }

  (* Keep log-dirty tracking armed on every guest and drain the dirty
     bitmaps. A reboot or restore replaces the guest's physical memory
     (new epoch) with tracking off, so re-arm whenever a VM's epoch moved.
     This Dom0 overhead is a schedulable job like any survey, so it is
     priced into the sweep. *)
  let drain_log_dirty s =
    let meter = Meter.create () in
    List.iter
      (fun vm ->
        let dom = Cloud.vm s.es_cloud vm in
        let e = Xenctl.memory_epoch dom in
        if Hashtbl.find_opt s.es_dirty_epochs vm <> Some e then begin
          Xenctl.enable_log_dirty ~meter dom;
          Hashtbl.replace s.es_dirty_epochs vm e
        end)
      (vms s);
    List.iter
      (fun vm ->
        let dirty = Xenctl.clean_dirty ~meter (Cloud.vm s.es_cloud vm) in
        if Tel.enabled () then Tel.add "vmi.pages_dirty" (List.length dirty))
      (vms s);
    meter

  let poll s ~now =
    let overhead =
      if s.es_config.incremental then Some (drain_log_dirty s) else None
    in
    finish s ~now ~traps:0 ~trap_at:(Hashtbl.create 1)
      (check s ~high:false ~overhead ~lists:true s.es_config.watch)

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
    let traps = ref 0 and trapped = Hashtbl.create 8 in
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
        if evs <> [] then
          Hashtbl.replace trapped vm
            (List.map (fun (e : Phys.watch_event) -> e.Phys.we_pfn) evs);
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
      let work =
        check s ~high:(not full) ~overhead:(Some overhead)
          ~lists:(hit Orchestrator.Watch_lists) mods
      in
      (* Arm (or re-arm) against the fresh footprints the surveys just
         cached; the delta hypercalls are part of this batch's cost. *)
      rearm s overhead ~trapped;
      Some (finish s ~now ~traps:!traps ~trap_at work)
    end

  let baseline s ~now = Option.get (run_once s ~now ~full:true)

  let react s ~now = run_once s ~now ~full:false
end

(* --- the clock loop ------------------------------------------------------ *)

let run_session ?(events = []) ?(trigger = Poll) ~until
    (session : Events.session) =
  let config = session.Events.es_config and cloud = session.Events.es_cloud in
  if not (config.interval_s > 0.0) then
    invalid_arg "Patrol.run_session: interval_s must be positive";
  (* Under traps the full sweep is only the safety net under anything
     write traps cannot see, so it runs 20x less often. *)
  let period =
    match trigger with
    | Poll -> config.interval_s
    | Traps -> 20.0 *. config.interval_s
  in
  let clock = ref 0.0 in
  let next_sweep = ref 0.0 in
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
  let rec fire upto =
    match !pending with
    | (t, f) :: rest when t <= upto ->
        f cloud;
        pending := rest;
        fire upto
    | _ -> ()
  in
  let sweep ts =
    Events.set_now session ts;
    let r =
      Tel.with_span
        ~attrs:[ ("sweep", Int (!sweeps + 1)); ("virtual_start_s", Float ts) ]
        "patrol_sweep"
      @@ fun sp ->
      let r =
        match trigger with
        | Poll -> Events.poll session ~now:ts
        | Traps -> Events.baseline session ~now:ts
      in
      Span.set_virtual sp ~start:ts ~finish:(ts +. r.Events.rx_wall);
      Span.set_attr sp "alarms" (Int (List.length r.Events.rx_alarms));
      Span.set_attr sp "cpu_s" (Float r.Events.rx_cpu);
      r
    in
    absorb ~sweep:true ~now:ts r;
    (* If the sweep overran the period, start again immediately. *)
    next_sweep := Float.max (ts +. period) (ts +. r.Events.rx_wall)
  in
  (* An event fires before a sweep starting at the same instant when
     polling (the sweep observes it), after it under traps (the write
     traps against the freshly armed watches). Under traps each event is
     followed at once by a targeted reaction; when polling it waits for
     the next sweep. Events past [until] never fire, but every event up to
     [until] does, even after the final sweep: an infection staged near
     the horizon must read as "happened but not detected in time". *)
  let rec loop () =
    let t_ev =
      match !pending with (t, _) :: _ when t <= until -> Some t | _ -> None
    in
    let t_sweep = if !next_sweep < until then Some !next_sweep else None in
    let event_first te =
      match t_sweep with
      | None -> true
      | Some ts -> te < ts || (te = ts && trigger = Poll)
    in
    match (t_ev, t_sweep) with
    | Some te, _ when event_first te ->
        Events.set_now session te;
        fire te;
        (match trigger with
        | Poll -> ()
        | Traps -> (
            match Events.react session ~now:te with
            | None -> clock := Float.max !clock te
            | Some r -> absorb ~sweep:false ~now:te r));
        loop ()
    | _, Some ts ->
        sweep ts;
        loop ()
    | _ -> ()
  in
  loop ();
  {
    alarms = List.rev !alarms;
    sweeps = !sweeps;
    reactions = !reactions;
    virtual_elapsed =
      (match trigger with
      | Poll -> !next_sweep
      | Traps -> Float.max !clock until);
    cpu_spent = !cpu;
    mean_sweep_wall = Mc_util.Stats.mean !walls;
    sweep_cpus = List.rev !sweep_cpus;
    latencies_s = List.rev !latencies;
  }

let run ?(config = default_config) ?events ?(trigger = Poll) cloud ~until =
  (* Trap patrol is incremental by construction: watches are armed from
     the digest caches' footprints, and the Merkle prints carry the
     page→leaf index that makes the post-trap refresh O(dirty). *)
  let config =
    match trigger with
    | Traps -> { config with incremental = true }
    | Poll -> config
  in
  let go mode =
    let check = Orchestrator.Config.with_mode mode config.check in
    run_session ?events ~trigger ~until
      (Events.in_process ~config:{ config with check } cloud)
  in
  if config.workers > 1 then
    Pool.with_pool config.workers (fun pool -> go (Orchestrator.Parallel pool))
  else go Orchestrator.Sequential

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
