module Cloud = Mc_hypervisor.Cloud
module Xenctl = Mc_hypervisor.Xenctl
module Meter = Mc_hypervisor.Meter
module Costs = Mc_hypervisor.Costs
module Catalog = Mc_pe.Catalog
module Kernel = Mc_winkernel.Kernel
module Deferred = Mc_parallel.Deferred
module Tel = Mc_telemetry.Registry
module Orchestrator = Modchecker.Orchestrator
module Config = Modchecker.Orchestrator.Config
module Report = Modchecker.Report
module Patrol = Modchecker.Patrol
module Exit_code = Modchecker.Exit_code
module Digest_cache = Modchecker.Digest_cache
module Infect = Mc_malware.Infect
module Strategy = Mc_malware.Strategy

exception Violation of string

type failure = { f_step : int; f_reason : string }

type outcome = {
  r_transcript : string;
  r_failure : failure option;
  r_applied : int;
  r_skipped : int;
  r_classes : (string * int) list;
}

let ints vs = String.concat "," (List.map string_of_int vs)

let catalog_image name = try Some (Catalog.image name) with _ -> None

let has_symbol name func =
  match catalog_image name with
  | None -> false
  | Some b -> List.mem_assoc func (Catalog.symbols b)

let run ?(break_checker = false) ?(quorum = Report.default_quorum)
    (sc : Event.scenario) =
  let vms = sc.Event.sc_vms in
  let watch = sc.Event.sc_watch in
  if watch = [] then invalid_arg "Runner.run: scenario has an empty watch list";
  let buf = Buffer.create 4096 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  out "scenario vms=%d cores=%d cloud-seed=%Ld watch=%s events=%d" vms
    sc.Event.sc_cores sc.Event.sc_cloud_seed (String.concat "," watch)
    (List.length sc.Event.sc_events);
  let was_enabled = Tel.enabled () in
  Tel.set_enabled true;
  (* Start from a fresh trace epoch: spans otherwise accumulate in the
     global registry across runs, and a shrink pass executes hundreds of
     candidate runs in one process. *)
  Tel.reset ();
  let snap0 = Tel.snapshot () in
  let cloud =
    Cloud.create ~vms ~cores:sc.Event.sc_cores ~seed:sc.Event.sc_cloud_seed ()
  in
  let snaps = Array.init vms (fun i -> Cloud.snapshot_vm cloud i) in
  let oracle = Oracle.create ~vms in
  let incremental = Orchestrator.create_incremental () in
  let base_cfg = Config.default |> Config.with_quorum quorum in
  let incr_cfg = Config.with_incremental incremental base_cfg in
  (* The event-driven patrol session lives for the whole campaign on its
     own incremental state (so [break_checker]'s sabotage of the survey
     cache cannot leak into it), reacting to write traps after every
     event against the oracle's prediction. *)
  let trap_inc = Orchestrator.create_incremental () in
  let session =
    Patrol.Events.in_process
      ~config:
        {
          Patrol.watch;
          interval_s = 30.0;
          costs = Costs.default;
          compare_lists = true;
          incremental = true;
          audit_anchors = true;
          check = Config.with_incremental trap_inc base_cfg;
        }
      cloud
  in
  let engine = ref None in
  let deferreds = ref [] in
  let get_engine () =
    match !engine with
    | Some e -> e
    | None ->
        let e = Mc_engine.create ~shards:2 ~config:base_cfg cloud in
        engine := Some e;
        e
  in
  (* Modules whose campaign-wide incremental entries are all fresh: the
     next incremental survey must be pure staleness probes, i.e. cheaper
     than the full pipeline. Any mutating event clears it. *)
  let warm = Hashtbl.create 8 in
  let cumulative = ref 0.0 in
  let applied = ref 0 in
  let skipped = ref 0 in
  let classes = Hashtbl.create 16 in
  let count_classes ev =
    List.iter
      (fun k ->
        Hashtbl.replace classes k
          (1 + Option.value ~default:0 (Hashtbl.find_opt classes k)))
      (Event.class_keys ev)
  in
  let step_ref = ref 0 in
  let now_ref = ref 0.0 in
  let failf fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in

  (* Live adversary machines, keyed by (victim, module). Only machines
     with pending transitions matter here (TOCTOU); the one-shots finish
     at launch. A reboot/restore of the victim sheds the in-memory hook,
     so the machine is killed rather than left re-hooking fresh
     memory. *)
  let machines : (int * string, Strategy.t) Hashtbl.t = Hashtbl.create 4 in
  let kill_machines_for vm =
    Hashtbl.iter (fun (v, _) m -> if v = vm then Strategy.kill m) machines;
    Hashtbl.filter_map_inplace
      (fun (v, _) m -> if v = vm then None else Some m)
      machines
  in
  let adversary_held vm m =
    Hashtbl.mem machines (vm, m)
    || Oracle.shimmed oracle vm m
    || Oracle.evading oracle vm m
  in
  let out_actions kind vm target actions =
    List.iter
      (fun (_, a) ->
        out "    adversary %s %d:%s %s" kind vm target
          (match a with
          | Strategy.Infected -> "infected"
          | Strategy.Restored -> "restored"))
      actions
  in
  let tick_machines now =
    Hashtbl.iter
      (fun (vm, target) m ->
        if Strategy.alive m then
          match Strategy.tick m ~now with
          | Ok [] -> ()
          | Ok actions ->
              Hashtbl.reset warm;
              out_actions (Strategy.kind_key (Strategy.kind m)) vm target
                actions
          | Error e ->
              failf "adversary machine on %d:%s died: %s" vm target e)
      machines
  in

  let validate_survey ~what m (s : Report.survey) =
    let armed = Oracle.faults_armed oracle in
    let e = Oracle.expect_survey oracle ~module_name:m ~quorum in
    let missing = List.sort compare s.Report.missing_on in
    let dev = List.sort compare s.Report.deviant_vms in
    let unreachable = List.sort compare (List.map fst s.Report.unreachable_on) in
    if (not armed) && unreachable <> [] then
      failf "%s survey of %s: unreachable VMs [%s] with no faults armed" what m
        (ints unreachable);
    if unreachable = [] then begin
      (* Every VM answered, so even under faults the result must be the
         ledger's prediction exactly. *)
      let cls = Oracle.class_of_verdict s.Report.s_verdict in
      if cls <> e.Oracle.x_verdict then
        failf "%s survey of %s: verdict %s, oracle says %s" what m
          (Oracle.verdict_class_key cls)
          (Oracle.verdict_class_key e.Oracle.x_verdict);
      if missing <> e.Oracle.x_missing then
        failf "%s survey of %s: missing on [%s], oracle says [%s]" what m
          (ints missing) (ints e.Oracle.x_missing);
      if dev <> e.Oracle.x_deviants then
        failf "%s survey of %s: deviants [%s], oracle says [%s]" what m
          (ints dev) (ints e.Oracle.x_deviants)
    end
    else begin
      (* Dropouts change the vote, but never license impossible claims:
         a VM reported missing must really lack the module (absence is
         verified, not inferred), and with no infected copy anywhere the
         clean clones cannot disagree. *)
      List.iter
        (fun v ->
          if Oracle.visible oracle v m then
            failf
              "%s survey of %s: VM %d reported missing but the module is \
               loaded there (false negative)"
              what m v)
        missing;
      if dev <> [] && not (Oracle.deviation_possible oracle m) then
        failf
          "%s survey of %s: deviants [%s] but no infected copy exists (false \
           positive)"
          what m (ints dev)
    end
  in

  let validate_check ~what vm m (res : (Orchestrator.outcome, string) result) =
    let armed = Oracle.faults_armed oracle in
    match (res, Oracle.expect_check oracle ~vm ~module_name:m ~quorum) with
    | Error _, Oracle.Expect_error -> ()
    | Error msg, Oracle.Expect_report _ ->
        if not armed then
          failf
            "%s check %d:%s errored (%s) but the module is loaded on the \
             target"
            what vm m msg
    | Ok _, Oracle.Expect_error ->
        failf
          "%s check %d:%s returned a report for a module the target does not \
           expose"
          what vm m
    | Ok o, Oracle.Expect_report { c_verdict; c_matches; c_total } ->
        let r = o.Orchestrator.report in
        if (not armed) && r.Report.unreachable <> [] then
          failf "%s check %d:%s: unreachable VMs with no faults armed" what vm m;
        if r.Report.unreachable = [] then begin
          let cls = Oracle.class_of_verdict r.Report.verdict in
          if
            cls <> c_verdict || r.Report.matches <> c_matches
            || r.Report.total <> c_total
          then
            failf "%s check %d:%s: %s %d/%d, oracle says %s %d/%d" what vm m
              (Oracle.verdict_class_key cls)
              r.Report.matches r.Report.total
              (Oracle.verdict_class_key c_verdict)
              c_matches c_total
        end
  in

  let validate_lists ~what (lc : Orchestrator.list_comparison) =
    let armed = Oracle.faults_armed oracle in
    if (not armed) && lc.Orchestrator.lc_unreachable <> [] then
      failf "%s lists: unreachable VMs with no faults armed" what;
    let actual =
      List.map
        (fun (d : Orchestrator.list_discrepancy) ->
          (d.Orchestrator.ld_module, List.sort compare d.Orchestrator.missing_on))
        lc.Orchestrator.lc_discrepancies
      |> List.sort compare
    in
    let fmt l =
      String.concat ";"
        (List.map (fun (m, vs) -> Printf.sprintf "%s:[%s]" m (ints vs)) l)
    in
    if lc.Orchestrator.lc_unreachable = [] then begin
      let expected = Oracle.expect_lists oracle in
      if actual <> expected then
        failf "%s lists: {%s}, oracle says {%s}" what (fmt actual)
          (fmt expected)
    end
    else
      List.iter
        (fun (m, miss) ->
          List.iter
            (fun v ->
              if Oracle.visible oracle v m then
                failf
                  "%s lists: %s reported absent on VM %d but it is loaded \
                   there"
                  what m v)
            miss)
        actual
  in

  (* [anchors] — include the read-channel audit's predicted
     [Anchor_mismatch] alarms: the trap session audits every sweep
     ([audit_anchors]), the plain polling sweep of [run_sweep] does
     not. *)
  let expected_alarms ?(anchors = false) () =
    let anchor_alarms =
      if not anchors then []
      else
        Oracle.expect_anchors oracle
        |> List.filter (fun (m, _) -> List.mem m watch)
        |> List.map (fun (m, v) -> ("anchor_mismatch", m, [ v ]))
    in
    let per_watch =
      List.concat_map
        (fun m ->
          let e = Oracle.expect_survey oracle ~module_name:m ~quorum in
          match e.Oracle.x_verdict with
          | Oracle.Degraded -> [ ("quorum_loss", m, []) ]
          | Oracle.Intact | Oracle.Infected ->
              (if e.Oracle.x_deviants <> [] then
                 [ ("hash_deviation", m, e.Oracle.x_deviants) ]
               else [])
              @
              if e.Oracle.x_missing <> [] then
                [ ("missing_module", m, e.Oracle.x_missing) ]
              else [])
        watch
    in
    let lists =
      Oracle.expect_lists oracle
      |> List.filter (fun (m, _) -> not (List.mem m watch))
      |> List.map (fun (m, miss) -> ("list_discrepancy", m, miss))
    in
    anchor_alarms @ per_watch @ lists
  in

  let norm_alarms alarms =
    List.map
      (fun (a : Patrol.alarm) ->
        ( Patrol.alarm_kind_key a.Patrol.kind,
          a.Patrol.alarm_module,
          List.sort compare a.Patrol.alarm_vms ))
      alarms
    |> List.sort compare
  in
  let fmt_alarm_set l =
    String.concat ";"
      (List.map (fun (k, m, vs) -> Printf.sprintf "%s:%s:[%s]" k m (ints vs)) l)
  in
  let integrity_only = List.filter (fun (k, _, _) -> k <> "quorum_loss") in
  (* Under an armed fault plan alarm sets are not exactly predictable
     (dropouts change votes), but impossible claims never are: a
     deviation needs an infected copy, an absence report needs a really
     absent module. Mirrors the sweep validation. *)
  let check_impossible_claims ~what alarms =
    List.iter
      (fun (kind, m, vs) ->
        if kind = "hash_deviation" && not (Oracle.deviation_possible oracle m)
        then
          failf
            "%s: hash deviation on %s but no infected copy exists (false \
             positive)"
            what m;
        if kind = "missing_module" || kind = "list_discrepancy" then
          List.iter
            (fun v ->
              if Oracle.visible oracle v m then
                failf "%s: %s reported absent on VM %d but it is loaded" what m
                  v)
            vs)
      alarms
  in
  let validate_reaction_work ~what (r : Patrol.Events.reaction) =
    List.iter
      (fun (m, s, _) -> validate_survey ~what m s)
      r.Patrol.Events.rx_work.Patrol.sw_surveys;
    (match r.Patrol.Events.rx_work.Patrol.sw_lists with
    | Some (lc, _) -> validate_lists ~what lc
    | None -> ());
    (* Every trap behind this reaction was stamped at the reaction's own
       virtual [now], so each latency is exactly the reaction's wall
       time; a latency outside [0, wall] means a trap leaked across
       steps or the attribution picked the wrong trap. *)
    List.iter
      (fun l ->
        if l < 0.0 || l > r.Patrol.Events.rx_wall +. 1e-9 then
          failf "%s: detection latency %.6f outside [0, %.6f]" what l
            r.Patrol.Events.rx_wall)
      r.Patrol.Events.rx_latencies
  in
  (* Whichever VMs a reaction re-derived, every VM's write-protected
     frames must be exactly the footprints its trap map is read from. A
     frame may be missing only while a trap that disarmed it still
     awaits delivery. *)
  let validate_armed ~what =
    for vm = 0 to vms - 1 do
      let dom = Cloud.vm cloud vm in
      let want =
        Orchestrator.watch_pfns trap_inc dom ~vm ~watch
        |> List.concat_map snd |> List.sort_uniq compare
      in
      let got = Xenctl.watched_pfns dom in
      if got <> want then begin
        let wanted = Hashtbl.create 512 in
        List.iter (fun pfn -> Hashtbl.replace wanted pfn ()) want;
        let extra = List.filter (fun pfn -> not (Hashtbl.mem wanted pfn)) got in
        if extra <> [] || Xenctl.pending_trap_events dom = 0 then
          failf
            "%s: Dom%d has %d frames armed, its footprints span %d (%d armed \
             outside them, %d pending traps)"
            what vm (List.length got) (List.length want) (List.length extra)
            (Xenctl.pending_trap_events dom)
      end
    done
  in
  let validate_reaction ~what ~expected_before ~expected_after r =
    validate_armed ~what;
    let armed = Oracle.faults_armed oracle in
    let before_i = integrity_only expected_before in
    let after_i = integrity_only expected_after in
    let fresh = List.filter (fun e -> not (List.mem e before_i)) after_i in
    match r with
    | None ->
        if (not armed) && fresh <> [] then
          failf
            "%s: no trap reaction fired, but the event created alarms the \
             oracle expects: {%s}"
            what (fmt_alarm_set fresh)
    | Some r ->
        validate_reaction_work ~what r;
        let actual_i = integrity_only (norm_alarms r.Patrol.Events.rx_alarms) in
        if not armed then begin
          List.iter
            (fun e ->
              if not (List.mem e after_i) then
                failf "%s: alarm %s not predicted by the oracle (false \
                       positive)"
                  what
                  (fmt_alarm_set [ e ]))
            actual_i;
          List.iter
            (fun e ->
              if not (List.mem e actual_i) then
                failf
                  "%s: expected new alarm %s was not raised by the trap \
                   reaction"
                  what
                  (fmt_alarm_set [ e ]))
            fresh
        end
        else check_impossible_claims ~what actual_i
  in
  (* A full (baseline / safety) sweep checks everything, so on a clean
     fault plan its alarm set must equal the oracle's prediction exactly
     — same contract as the polling sweep. *)
  let validate_trap_full ~what (r : Patrol.Events.reaction) =
    validate_armed ~what;
    validate_reaction_work ~what r;
    let actual = norm_alarms r.Patrol.Events.rx_alarms in
    if not (Oracle.faults_armed oracle) then begin
      let expected = List.sort compare (expected_alarms ~anchors:true ()) in
      if actual <> expected then
        failf "%s alarms {%s}, oracle says {%s}" what (fmt_alarm_set actual)
          (fmt_alarm_set expected)
    end
    else check_impossible_claims ~what (integrity_only actual)
  in

  let run_sweep () =
    let cfg =
      {
        Patrol.watch;
        interval_s = 1e9;
        costs = Costs.default;
        compare_lists = true;
        incremental = false;
        audit_anchors = false;
        check = base_cfg;
      }
    in
    let o = Patrol.run ~config:cfg cloud ~until:0.5 in
    if o.Patrol.sweeps <> 1 then
      failf "sweep loop ran %d sweeps instead of 1" o.Patrol.sweeps;
    let actual =
      List.map
        (fun (a : Patrol.alarm) ->
          ( Patrol.alarm_kind_key a.Patrol.kind,
            a.Patrol.alarm_module,
            List.sort compare a.Patrol.alarm_vms ))
        o.Patrol.alarms
      |> List.sort compare
    in
    let armed = Oracle.faults_armed oracle in
    let fmt l =
      String.concat ";"
        (List.map (fun (k, m, vs) -> Printf.sprintf "%s:%s:[%s]" k m (ints vs)) l)
    in
    if not armed then begin
      let expected = List.sort compare (expected_alarms ()) in
      if actual <> expected then
        failf "sweep alarms {%s}, oracle says {%s}" (fmt actual) (fmt expected)
    end
    else
      List.iter
        (fun (kind, m, vs) ->
          if kind = "hash_deviation" && not (Oracle.deviation_possible oracle m)
          then
            failf
              "sweep: hash deviation on %s but no infected copy exists (false \
               positive)"
              m;
          if kind = "missing_module" || kind = "list_discrepancy" then
            List.iter
              (fun v ->
                if Oracle.visible oracle v m then
                  failf "sweep: %s reported absent on VM %d but it is loaded"
                    m v)
              vs)
        actual;
    List.iter (fun (k, m, vs) -> out "    alarm %s %s [%s]" k m (ints vs)) actual;
    out "    sweep cpu=%.6f" o.Patrol.cpu_spent
  in

  let validate_response (resp : Mc_engine.response) =
    match resp.Mc_engine.r_outcome with
    | Mc_engine.Checked res ->
        let vm, m =
          match resp.Mc_engine.r_request with
          | Mc_engine.Check { vm; module_name } -> (vm, module_name)
          | _ -> assert false
        in
        validate_check ~what:"engine" vm m res;
        (match res with
        | Ok o -> Report.verdict_key o.Orchestrator.report.Report.verdict
        | Error _ -> "error")
    | Mc_engine.Surveyed s ->
        let m =
          match resp.Mc_engine.r_request with
          | Mc_engine.Survey { module_name } -> module_name
          | _ -> assert false
        in
        validate_survey ~what:"engine" m s;
        Report.verdict_key s.Report.s_verdict
    | Mc_engine.Listed lc ->
        validate_lists ~what:"engine" lc;
        Printf.sprintf "%d discrepancies"
          (List.length lc.Orchestrator.lc_discrepancies)
  in

  let run_burst items =
    let e = get_engine () in
    let subs =
      List.map
        (fun (it : Event.burst_item) ->
          match Mc_engine.submit ~priority:it.Event.b_priority e it.Event.b_request with
          | Ok d ->
              deferreds := d :: !deferreds;
              (it, d)
          | Error rej ->
              failf "engine rejected %s: %s"
                (Mc_engine.request_key it.Event.b_request)
                (Mc_engine.rejection_message rej))
        items
    in
    List.iteri
      (fun i ((it : Event.burst_item), d) ->
        let resp = Deferred.await d in
        let token = validate_response resp in
        out "    burst[%d] %s %s -> %s" i
          (Mc_engine.request_key it.Event.b_request)
          (Mc_engine.priority_key it.Event.b_priority)
          token)
      subs
  in

  let precondition ev =
    let in_range vm = vm >= 0 && vm < vms in
    let all = List.init vms Fun.id in
    match ev with
    | Event.Infect { family; vm; module_name; func } ->
        if not (in_range vm) then Error "vm out of range"
        else (
          match family with
          | Event.Opcode ->
              if not (List.mem module_name Catalog.standard_modules) then
                Error "opcode patching targets standard modules"
              else if not (has_symbol module_name func) then
                Error (Printf.sprintf "no function %s in %s" func module_name)
              else Ok ()
          | Event.Hook ->
              if not (Oracle.visible oracle vm module_name) then
                Error (module_name ^ " not visible on the target")
              else if not (has_symbol module_name func) then
                Error (Printf.sprintf "no function %s in %s" func module_name)
              else if adversary_held vm module_name then
                Error (module_name ^ " under adversary control on the target")
              else Ok ()
          | Event.Stub ->
              if List.exists (fun v -> Oracle.loaded oracle v "hello.sys") all
              then Error "hello.sys already loaded somewhere"
              else Ok ()
          | Event.Dll_inject ->
              if List.exists (fun v -> Oracle.loaded oracle v "dummy.sys") all
              then Error "dummy.sys already loaded somewhere"
              else if Oracle.loaded oracle vm "inject.dll" then
                Error "inject.dll already loaded on the victim"
              else Ok ()
          | Event.Pointer ->
              if not (Oracle.visible oracle vm "hal.dll") then
                Error "hal.dll not visible on the target"
              else if adversary_held vm "hal.dll" then
                Error "hal.dll under adversary control on the target"
              else Ok ()
          | Event.Hide ->
              if module_name = "ntoskrnl.exe" then
                Error "refusing to hide the kernel image"
              else if not (Oracle.visible oracle vm module_name) then
                Error (module_name ^ " not visible on the target")
              else Ok ())
    | Event.Evade { strategy; vm; module_name; func; dwell; period } -> (
        if not (List.mem module_name Catalog.standard_modules) then
          Error "adversaries target standard modules"
        else if not (has_symbol module_name func) then
          Error (Printf.sprintf "no function %s in %s" func module_name)
        else
          match strategy with
          | Event.Race ->
              (* [vm] is the victim count: VMs 0..vm-1. *)
              if vm < 2 || vm > vms then Error "race victim count out of range"
              else Ok ()
          | (Event.Toctou | Event.Pager | Event.Tamper) as strategy ->
              if not (in_range vm) then Error "vm out of range"
              else if Oracle.tag oracle vm module_name <> Some Oracle.clean_tag
              then Error (module_name ^ " not clean-visible on the target")
              else if adversary_held vm module_name then
                Error (module_name ^ " already under adversary control")
              else if
                strategy = Event.Tamper
                && List.exists
                     (fun m -> Oracle.shimmed oracle vm m)
                     (Oracle.known_modules oracle)
              then Error "a foreign-read shim is already installed on the VM"
              else if strategy = Event.Toctou && not (0 < dwell && dwell < period)
              then Error "toctou needs 0 < dwell < period"
              else Ok ())
    | Event.Reboot vm | Event.Restore vm ->
        if in_range vm then Ok () else Error "vm out of range"
    | Event.Load { vm; module_name } ->
        if not (in_range vm) then Error "vm out of range"
        else if not (Oracle.on_disk oracle vm module_name) then
          Error (module_name ^ " not on the VM's disk")
        else if Oracle.loaded oracle vm module_name then
          Error (module_name ^ " already loaded")
        else Ok ()
    | Event.Workload { vm; _ } | Event.Check { vm; _ } ->
        if in_range vm then Ok () else Error "vm out of range"
    | Event.Faults _ | Event.Sweep -> Ok ()
    | Event.Burst items ->
        if
          List.for_all
            (fun (it : Event.burst_item) ->
              match it.Event.b_request with
              | Mc_engine.Check { vm; _ } -> in_range vm
              | _ -> true)
            items
        then Ok ()
        else Error "burst check vm out of range"
  in

  (* The six infection drivers validate their inputs before the first
     guest write, so an [Error] from the point families means "nothing
     happened" (skip); the everywhere-loading families and DKOM have no
     such failure mode once preconditions hold, so their errors are
     campaign failures. *)
  let apply_infect family vm module_name func =
    let res =
      match family with
      | Event.Opcode ->
          Infect.single_opcode_replacement ~module_name ~func cloud ~vm
      | Event.Hook -> Infect.inline_hook ~module_name ~func cloud ~vm
      | Event.Stub -> Infect.stub_modification cloud ~vm
      | Event.Dll_inject -> Infect.dll_injection cloud ~vm
      | Event.Pointer -> Infect.pointer_hook cloud ~vm
      | Event.Hide -> Infect.hide_module cloud ~vm ~module_name
    in
    match res with
    | Ok inf ->
        Oracle.apply_infect oracle ~family ~vm ~module_name ~func;
        Ok inf.Infect.technique
    | Error e -> (
        match family with
        | Event.Opcode | Event.Hook | Event.Pointer ->
            Error ("not applicable: " ^ e)
        | Event.Stub | Event.Dll_inject | Event.Hide ->
            failf "%s infection failed after preconditions held: %s"
              (Event.family_key family) e)
  in

  let apply_event ev =
    match ev with
    | Event.Infect { family; vm; module_name; func } -> (
        match apply_infect family vm module_name func with
        | Ok tech ->
            (* An opcode patch reboots the victim, shedding any live
               adversary's in-memory state with the old frames. *)
            if family = Event.Opcode then kill_machines_for vm;
            Hashtbl.reset warm;
            Ok tech
        | Error note -> Error note)
    | Event.Evade { strategy; vm; module_name; func; dwell; period } -> (
        let now = !now_ref in
        let launched =
          match strategy with
          | Event.Toctou ->
              Strategy.toctou ~module_name ~func cloud ~vm ~start:now
                ~dwell:(float_of_int dwell) ~period:(float_of_int period)
          | Event.Pager -> Strategy.pager ~module_name ~func cloud ~vm ~start:now
          | Event.Tamper ->
              Strategy.tamper ~module_name ~func cloud ~vm ~start:now
          | Event.Race ->
              Strategy.race ~module_name ~func cloud ~vms:(List.init vm Fun.id)
                ~start:now
        in
        match launched with
        | Error e -> Error ("not applicable: " ^ e)
        | Ok machine -> (
            match Strategy.tick machine ~now with
            | Error e ->
                (* The infection drivers underneath validate before the
                   first guest write (same contract as the point
                   families), so a launch error means nothing
                   happened. *)
                Error ("not applicable: " ^ e)
            | Ok actions ->
                Hashtbl.reset warm;
                (match strategy with
                | Event.Toctou ->
                    Hashtbl.replace machines (vm, module_name) machine;
                    Oracle.apply_evade_toctou oracle ~vm ~module_name ~func
                      ~dwell:(float_of_int dwell)
                      ~period:(float_of_int period)
                | Event.Pager ->
                    Oracle.apply_evade_pager oracle ~vm ~module_name ~func
                | Event.Tamper ->
                    Oracle.apply_evade_tamper oracle ~vm ~module_name ~func
                | Event.Race ->
                    (* Every victim rebooted into the patched file. *)
                    List.iter kill_machines_for (List.init vm Fun.id);
                    Oracle.apply_evade_race oracle ~count:vm ~module_name
                      ~func);
                out_actions (Event.strategy_key strategy) vm module_name
                  actions;
                Ok (Event.strategy_key strategy ^ " adversary launched")))
    | Event.Reboot vm ->
        Cloud.reboot_vm cloud vm;
        Oracle.apply_reboot oracle vm;
        kill_machines_for vm;
        Hashtbl.reset warm;
        Ok "rebooted"
    | Event.Restore vm ->
        Cloud.restore_vm cloud vm snaps.(vm);
        Oracle.apply_restore oracle vm;
        kill_machines_for vm;
        Hashtbl.reset warm;
        Ok "restored"
    | Event.Load { vm; module_name } -> (
        match Infect.load_driver (Cloud.vm cloud vm) ~name:module_name with
        | Ok _ ->
            Oracle.apply_load oracle ~vm ~module_name;
            Hashtbl.reset warm;
            Ok "loaded"
        | Error e ->
            failf "loading %s on VM %d failed after preconditions held: %s"
              module_name vm (Kernel.error_to_string e))
    | Event.Workload { vm; load } ->
        Cloud.set_workload cloud vm (Event.stress_of_workload load);
        Ok ("now " ^ Event.workload_key load)
    | Event.Faults spec ->
        Cloud.set_fault_spec cloud spec;
        Oracle.apply_faults oracle spec;
        Hashtbl.reset warm;
        Ok (match spec with None -> "disarmed" | Some _ -> "armed")
    | Event.Sweep ->
        run_sweep ();
        Ok "swept"
    | Event.Check { vm; module_name } ->
        let res =
          Orchestrator.check_module ~config:base_cfg cloud ~target_vm:vm
            ~module_name
        in
        validate_check ~what:"interactive" vm module_name res;
        Ok
          (match res with
          | Ok o -> Report.verdict_key o.Orchestrator.report.Report.verdict
          | Error _ -> "error (absent or unreachable)")
    | Event.Burst items ->
        run_burst items;
        Ok "burst settled"
  in

  let rotate step = List.nth watch (step mod List.length watch) in

  let focus step ev =
    let affected =
      match ev with
      | Event.Infect { family = Event.Stub; _ } -> Some "hello.sys"
      | Event.Infect { family = Event.Dll_inject; _ } -> Some "dummy.sys"
      | Event.Infect { family = Event.Pointer; _ } -> Some "hal.dll"
      | Event.Infect { module_name; _ }
      | Event.Load { module_name; _ }
      | Event.Evade { module_name; _ } ->
          Some module_name
      | _ -> None
    in
    let r = rotate step in
    match affected with Some m when m <> r -> [ r; m ] | _ -> [ r ]
  in

  let sabotage step =
    let target = rotate step in
    let flipped = ref false in
    let n =
      Digest_cache.tamper incremental.Orchestrator.inc_merkle
        (fun ~vm:_ ~key v ->
          if !flipped || key <> target then None
          else
            match v with
            | Some ({ Orchestrator.mp_flat = (kind, digest) :: rest; _ } as mp)
              when String.length digest > 0 ->
                flipped := true;
                let b = Bytes.of_string digest in
                Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
                let mp_flat = (kind, Bytes.to_string b) :: rest in
                Some (Some (Orchestrator.merkle_print_with_flat mp mp_flat))
            | _ -> None)
    in
    if n > 0 then out "    sabotage: flipped one cached digest byte of %s" target
  in

  let check_phase step ev =
    let mods = focus step ev in
    let step_cost = ref 0.0 in
    List.iter
      (fun m ->
        let meter_full = Meter.create () in
        let s_full =
          Orchestrator.survey ~config:base_cfg ~meter:meter_full cloud
            ~module_name:m
        in
        validate_survey ~what:"full" m s_full;
        if s_full.Report.unreachable_on = [] then begin
          let ec = Exit_code.of_survey s_full in
          let xc = Oracle.expected_exit oracle ~module_name:m ~quorum in
          if ec <> xc then
            failf "survey of %s maps to exit code %d, oracle says %d" m ec xc
        end;
        let full_cost = Meter.total_cpu_seconds Costs.default meter_full in
        let counter_now name =
          Option.value ~default:0
            (List.assoc_opt name (Tel.snapshot ()).Tel.snap_counters)
        in
        let escal0 = counter_now "survey.incremental_escalations" in
        let meter_incr = Meter.create () in
        let s_incr =
          Orchestrator.survey ~config:incr_cfg ~meter:meter_incr cloud
            ~module_name:m
        in
        validate_survey ~what:"incremental" m s_incr;
        let armed = Oracle.faults_armed oracle in
        (* Escalation (per-VM fingerprints disagreeing) is legitimate only
           when some infected copy exists; on a clean pool it means the
           cached fingerprints themselves are wrong — exactly what the
           [break_checker] sabotage produces, which escalation would
           otherwise silently heal by recomputing from scratch. Dropouts
           never cause a mismatch on their own (absent fingerprints are
           excluded from the comparison), so like the verdict checks
           this holds even while faults are armed, as long as every VM
           answered. *)
        if
          s_incr.Report.unreachable_on = []
          && counter_now "survey.incremental_escalations" > escal0
          && not (Oracle.deviation_possible oracle m)
        then
          failf
            "incremental survey of %s escalated on a clean pool — cached \
             fingerprints disagree"
            m;
        if not armed then begin
          if
            Oracle.class_of_verdict s_incr.Report.s_verdict
            <> Oracle.class_of_verdict s_full.Report.s_verdict
            || List.sort compare s_incr.Report.deviant_vms
               <> List.sort compare s_full.Report.deviant_vms
            || List.sort compare s_incr.Report.missing_on
               <> List.sort compare s_full.Report.missing_on
          then
            failf
              "incremental/full parity broken for %s: incremental %s \
               dev=[%s] miss=[%s], full %s dev=[%s] miss=[%s]"
              m
              (Report.verdict_key s_incr.Report.s_verdict)
              (ints (List.sort compare s_incr.Report.deviant_vms))
              (ints (List.sort compare s_incr.Report.missing_on))
              (Report.verdict_key s_full.Report.s_verdict)
              (ints (List.sort compare s_full.Report.deviant_vms))
              (ints (List.sort compare s_full.Report.missing_on))
        end;
        let incr_cost = Meter.total_cpu_seconds Costs.default meter_incr in
        (* Cheaper-than-full only holds for a reconciled pool: any
           fingerprint disagreement escalates the incremental survey to
           the byte level (its cost then adds one fresh fetch per print
           class and one comparison per pair of classes to the probes,
           plus the members of classes left apart and their pairs, or
           the whole full pipeline when that escalation falls back), so
           a pool with live deviants need not save anything. *)
        if
          (not armed)
          && Hashtbl.mem warm m
          && s_incr.Report.deviant_vms = []
          && incr_cost >= full_cost
        then
          failf
            "steady-state incremental survey of %s cost %.6f, full pipeline \
             %.6f — the cache saved nothing"
            m incr_cost full_cost;
        if not armed then Hashtbl.replace warm m ();
        step_cost := !step_cost +. full_cost +. incr_cost;
        out
          "    survey %-12s %s dev=[%s] miss=[%s] unreach=%d cost=%.6f \
           incr=%.6f"
          m
          (Report.verdict_key s_full.Report.s_verdict)
          (ints (List.sort compare s_full.Report.deviant_vms))
          (ints (List.sort compare s_full.Report.missing_on))
          (List.length s_full.Report.unreachable_on)
          full_cost incr_cost)
      mods;
    if !step_cost <= 0.0 then
      failf "step cost %.9f is not positive — metered work vanished" !step_cost;
    cumulative := !cumulative +. !step_cost;
  in

  let failure = ref None in
  (try
     Patrol.Events.set_now session 0.0;
     let b = Patrol.Events.baseline session ~now:0.0 in
     validate_trap_full ~what:"trap baseline" b;
     out "trap baseline: %d alarms, cpu=%.6f"
       (List.length b.Patrol.Events.rx_alarms)
       b.Patrol.Events.rx_cpu;
     List.iteri
       (fun step ev ->
         step_ref := step;
         (* Stamp this step's guest writes with its virtual time, and
            remember what the oracle expected before the event so the
            reaction can be held to exactly the alarms it created. *)
         let ev_now = float_of_int (step + 1) in
         now_ref := ev_now;
         Patrol.Events.set_now session ev_now;
         (* The oracle answers "as of" this instant: TOCTOU windows and
            shim predictions depend on it. Machines tick first, so the
            guest's true state matches the prediction at every
            observation this step makes. *)
         Oracle.set_now oracle ev_now;
         tick_machines ev_now;
         let expected_before =
           List.sort compare (expected_alarms ~anchors:true ())
         in
         let line = Event.to_string ev in
         (match precondition ev with
         | Error reason ->
             incr skipped;
             out "step %d: %s -> skipped (%s)" step line reason
         | Ok () -> (
             out "step %d: %s" step line;
             match apply_event ev with
             | Ok note ->
                 incr applied;
                 count_classes ev;
                 out "    -> %s" note
             | Error note ->
                 incr skipped;
                 out "    -> skipped (%s)" note));
         let expected_after =
           List.sort compare (expected_alarms ~anchors:true ())
         in
         let rx = Patrol.Events.react session ~now:ev_now in
         validate_reaction
           ~what:(Printf.sprintf "trap reaction (step %d)" step)
           ~expected_before ~expected_after rx;
         (match rx with
         | Some r ->
             out "    trap reaction: %d trap(s), %d alarm(s), wall=%.6f"
               r.Patrol.Events.rx_traps
               (List.length r.Patrol.Events.rx_alarms)
               r.Patrol.Events.rx_wall
         | None -> ());
         if break_checker then sabotage step;
         check_phase step ev)
       sc.Event.sc_events;
     (* End-of-campaign accounting. *)
     step_ref := List.length sc.Event.sc_events;
     (* One final safety sweep: after everything the campaign did, the
        trap session's full re-check must land exactly on the oracle's
        terminal state. *)
     let fin = float_of_int (List.length sc.Event.sc_events + 1) in
     now_ref := fin;
     Patrol.Events.set_now session fin;
     Oracle.set_now oracle fin;
     tick_machines fin;
     let f = Patrol.Events.baseline session ~now:fin in
     validate_trap_full ~what:"final trap sweep" f;
     out "final trap sweep: %d alarms" (List.length f.Patrol.Events.rx_alarms);
     (match !engine with
     | Some e ->
         Mc_engine.drain e;
         let st = Mc_engine.stats e in
         if st.Mc_engine.st_submitted <> st.Mc_engine.st_completed then
           failf "engine drained with %d submitted but %d completed"
             st.Mc_engine.st_submitted st.Mc_engine.st_completed;
         List.iter
           (fun d ->
             if not (Deferred.is_filled d) then
               failf "an admitted burst request never settled")
           !deferreds
     | None -> ());
     let snap1 = Tel.snapshot () in
     let delta name =
       let get (s : Tel.snapshot) =
         Option.value ~default:0 (List.assoc_opt name s.Tel.snap_counters)
       in
       get snap1 - get snap0
     in
     let expect_counter name expected =
       let d = delta name in
       if d <> expected then
         failf "telemetry %s delta %d, ledger says %d" name d expected
     in
     expect_counter "cloud.vm_reboots" (Oracle.reboots oracle);
     expect_counter "cloud.vm_restores" (Oracle.restores oracle);
     expect_counter "cloud.vm_snapshots" vms;
     expect_counter "cloud.vm_boots" (vms + Oracle.reboots oracle);
     if (not (Oracle.ever_faulted oracle)) && delta "vmi.retries" <> 0 then
       failf "vmi.retries delta %d with no fault plan ever armed"
         (delta "vmi.retries")
   with
  | Violation msg ->
      failure := Some { f_step = !step_ref; f_reason = msg };
      out "FAILURE at step %d: %s" !step_ref msg
  | exn ->
      let msg = "exception: " ^ Printexc.to_string exn in
      failure := Some { f_step = !step_ref; f_reason = msg };
      out "FAILURE at step %d: %s" !step_ref msg);
  (match !engine with
  | Some e -> ( try Mc_engine.drain e with _ -> ())
  | None -> ());
  (* Cached prints and list walks carried across a restore by their
     page stamps: the campaign's checks ran on them, so a nonzero count
     says the oracle judged that path. *)
  let revalidated =
    Option.value ~default:0
      (List.assoc_opt "digest_cache.revalidated"
         (Tel.snapshot ()).Tel.snap_counters)
  in
  Tel.set_enabled was_enabled;
  out
    "ledger: applied=%d skipped=%d infections=%d reboots=%d restores=%d \
     revalidated=%d"
    !applied !skipped
    (Oracle.infections oracle)
    (Oracle.reboots oracle)
    (Oracle.restores oracle)
    revalidated;
  {
    r_transcript = Buffer.contents buf;
    r_failure = !failure;
    r_applied = !applied;
    r_skipped = !skipped;
    r_classes =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) classes []
      |> List.sort compare;
  }
