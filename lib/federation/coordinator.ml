module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Costs = Mc_hypervisor.Costs
module Tel = Mc_telemetry.Registry
module Span = Mc_telemetry.Span
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Exit_code = Modchecker.Exit_code

type config = {
  host_quorum : float;
  host_deadline_s : float option;
  check : Orchestrator.Config.t;
  costs : Costs.t;
}

let default_config =
  {
    host_quorum = 1.0;
    host_deadline_s = None;
    check = Orchestrator.Config.default;
    costs = Costs.default;
  }

type surveyed = {
  sv_survey : Report.survey;
  sv_fingerprint : Orchestrator.fingerprint option;
  sv_elapsed_s : float;
}

type host_outcome = Host_unreachable of string | Host_surveyed of surveyed

type host_vote = {
  hv_host : int;
  hv_name : string;
  hv_rack : int;
  hv_region : int;
  hv_cohort : int;
  hv_outcome : host_outcome;
}

type cohort = {
  ch_level : int;
  ch_hosts : int list;
  ch_agreement : int list list;
  ch_deviant_hosts : int list;
}

type fleet_report = {
  fb_module : string;
  fb_votes : host_vote list;
  fb_cohorts : cohort list;
  fb_deviant_vms : (int * int) list;
  fb_missing_vms : (int * int) list;
  fb_deviant_hosts : int list;
  fb_unreachable_hosts : (int * string) list;
  fb_hosts_surveyed : int;
  fb_hosts_responded : int;
  fb_fleet_cpu_s : float;
  fb_critical_path_s : float;
  fb_verdict : Report.verdict;
}

let host_unreachable_reason = "host unreachable"

(* The per-host view of the shared check config: incremental state must
   be host-local (digest caches key on VM indices, which repeat across
   hosts), so a caller asking for incremental checking gets one state per
   host, not one shared table. *)
let host_config config (host : Host.t) =
  match config.check.Orchestrator.Config.incremental with
  | None -> config.check
  | Some _ ->
      Orchestrator.Config.with_incremental (Host.incremental host)
        config.check

(* The host's ballot in the cross-host vote: a base-independent
   fingerprint of its majority agreement class, computed from a
   representative VM (falling back through the class if fetch faults take
   the first pick away). A host whose own pool is split still casts the
   ballot of its largest class — its local deviants are already
   reported. *)
let majority_fingerprint ~meter (host : Host.t) survey ~module_name =
  match survey.Report.agreement_classes with
  | [] -> None
  | largest :: _ ->
      List.find_map
        (fun vm ->
          match
            Orchestrator.reference_fingerprint ~meter host.Host.cloud ~vm
              ~module_name
          with
          | Ok fp -> Some fp
          | Error _ -> None)
        largest

let survey_host config ~module_name (host : Host.t) =
  let vote outcome =
    {
      hv_host = host.Host.host_id;
      hv_name = host.Host.host_name;
      hv_rack = host.Host.rack;
      hv_region = host.Host.region;
      hv_cohort = host.Host.patch_level;
      hv_outcome = outcome;
    }
  in
  if not host.Host.up then vote (Host_unreachable host_unreachable_reason)
  else
    Tel.with_span
      ~attrs:
        [
          ("host", Int host.Host.host_id);
          ("rack", Int host.Host.rack);
          ("region", Int host.Host.region);
          ("cohort", Int host.Host.patch_level);
        ]
      "federation.host"
    @@ fun sp ->
    let jm = Meter.create () in
    let survey =
      Orchestrator.survey ~config:(host_config config host) ~meter:jm
        host.Host.cloud ~module_name
    in
    let fingerprint = majority_fingerprint ~meter:jm host survey ~module_name in
    Meter.merge host.Host.meter jm;
    (* What the coordinator waited for this host: the host's metered work
       priced on its own clock, stretched by its rack's latency. *)
    let elapsed_s =
      Meter.total_cpu_seconds config.costs jm *. host.Host.latency_factor
    in
    Span.set_attr sp "elapsed_s" (Float elapsed_s);
    match config.host_deadline_s with
    | Some d when elapsed_s > d ->
        Tel.add "federation.host_deadline_misses" 1;
        vote
          (Host_unreachable
             (Printf.sprintf
                "response after %.2fs exceeded host deadline %gs (rack %d at \
                 %.1fx latency)"
                elapsed_s d host.Host.rack host.Host.latency_factor))
    | _ ->
        vote
          (Host_surveyed
             {
               sv_survey = survey;
               sv_fingerprint = fingerprint;
               sv_elapsed_s = elapsed_s;
             })

(* Group responding same-level hosts by their majority fingerprint and
   let each cohort vote: the largest group, when a strict majority of the
   cohort, is trusted; hosts outside it deviate. One fingerprint per host
   means a pool-wide coordinated infection — invisible to that host's own
   internal vote — is caught by its peers running the same build. *)
let cohort_votes votes =
  let voting =
    List.filter_map
      (fun v ->
        match v.hv_outcome with
        | Host_surveyed { sv_fingerprint = Some fp; _ } ->
            Some (v.hv_cohort, v.hv_host, fp)
        | _ -> None)
      votes
  in
  let levels = List.sort_uniq compare (List.map (fun (l, _, _) -> l) voting) in
  List.map
    (fun level ->
      let members =
        List.filter_map
          (fun (l, h, fp) -> if l = level then Some (h, fp) else None)
          voting
      in
      let groups =
        List.fold_left
          (fun acc (h, fp) ->
            match List.partition (fun (fq, _) -> fq = fp) acc with
            | [ (_, hs) ], rest -> (fp, h :: hs) :: rest
            | _, rest -> (fp, [ h ]) :: rest)
          [] members
        |> List.map (fun (_, hs) -> List.sort compare hs)
        |> List.sort (fun a b -> compare (List.length b) (List.length a))
      in
      let hosts = List.map fst members |> List.sort compare in
      {
        ch_level = level;
        ch_hosts = hosts;
        ch_agreement = groups;
        ch_deviant_hosts = Report.cohort_deviants ~members:hosts groups;
      })
    levels

(* Too few hosts answered: the fleet verdict is [Degraded] whatever the
   responders found. Otherwise [judge] decides from their answers. *)
let host_quorum_verdict config ~surveyed ~responded judge =
  if Report.quorum_met ~quorum:config.host_quorum ~surveyed ~responded then
    judge ()
  else
    Report.Degraded
      (Printf.sprintf "%d/%d host(s) responded (host quorum %g)" responded
         surveyed config.host_quorum)

let survey ?(config = default_config) topo ~module_name =
  let hosts = Topology.hosts topo in
  Tel.with_span
    ~attrs:
      [
        ("module", String module_name);
        ("hosts", Int (List.length hosts));
      ]
    "federation.survey"
  @@ fun root ->
  let votes = List.map (survey_host config ~module_name) hosts in
  let responded, unreachable =
    List.partition_map
      (fun v ->
        match v.hv_outcome with
        | Host_surveyed s -> Left (v, s)
        | Host_unreachable r -> Right (v.hv_host, r))
      votes
  in
  let multi_host = List.length hosts > 1 in
  let deviant_vms =
    List.concat_map
      (fun (v, s) ->
        List.map
          (fun vm -> (v.hv_host, vm))
          s.sv_survey.Report.deviant_vms)
      responded
    |> List.sort compare
  in
  (* A module absent from every VM of a host is "not deployed there", not
     hiding — unless this is a single-host fleet, where the one-pool
     semantics (and exit parity with the standalone survey) apply
     unchanged. *)
  let missing_vms =
    List.concat_map
      (fun (v, s) ->
        if multi_host && s.sv_survey.Report.s_voted = 0 then []
        else
          List.map (fun vm -> (v.hv_host, vm)) s.sv_survey.Report.missing_on)
      responded
    |> List.sort compare
  in
  let degraded_hosts =
    List.filter_map
      (fun (v, s) ->
        match s.sv_survey.Report.s_verdict with
        | Report.Degraded reason -> Some (v.hv_host, reason)
        | Report.Intact | Report.Infected -> None)
      responded
  in
  let cohorts = cohort_votes votes in
  let deviant_hosts =
    List.concat_map (fun c -> c.ch_deviant_hosts) cohorts |> List.sort compare
  in
  let surveyed = List.length hosts in
  let n_responded = List.length responded in
  let fb_fleet_cpu_s =
    List.fold_left (fun acc (_, s) -> acc +. s.sv_elapsed_s) 0.0 responded
  in
  let fb_critical_path_s =
    List.fold_left
      (fun acc (_, s) -> Float.max acc s.sv_elapsed_s)
      0.0 responded
  in
  let verdict =
    host_quorum_verdict config ~surveyed ~responded:n_responded @@ fun () ->
    match degraded_hosts with
    | (h, reason) :: _ ->
        Report.Degraded (Printf.sprintf "host%d degraded: %s" h reason)
    | [] ->
        if deviant_vms <> [] || missing_vms <> [] || deviant_hosts <> [] then
          Report.Infected
        else Report.Intact
  in
  if Tel.enabled () then begin
    Tel.add "federation.surveys" 1;
    Tel.add "federation.hosts_surveyed" surveyed;
    Tel.add "federation.hosts_unreachable" (List.length unreachable);
    Tel.add "federation.cohorts" (List.length cohorts);
    Tel.add "federation.cross_host_votes"
      (List.fold_left (fun n c -> n + List.length c.ch_hosts) 0 cohorts);
    Tel.add "federation.deviant_hosts" (List.length deviant_hosts);
    (match verdict with
    | Report.Degraded _ -> Tel.add "federation.degraded_verdicts" 1
    | _ -> ());
    Span.set_attr root "deviant_vms" (Int (List.length deviant_vms));
    Span.set_attr root "deviant_hosts" (Int (List.length deviant_hosts))
  end;
  {
    fb_module = module_name;
    fb_votes = votes;
    fb_cohorts = cohorts;
    fb_deviant_vms = deviant_vms;
    fb_missing_vms = missing_vms;
    fb_deviant_hosts = deviant_hosts;
    fb_unreachable_hosts = unreachable;
    fb_hosts_surveyed = surveyed;
    fb_hosts_responded = n_responded;
    fb_fleet_cpu_s;
    fb_critical_path_s;
    fb_verdict = verdict;
  }

let check ?(config = default_config) topo ~host ~vm ~module_name =
  let h = Topology.host topo host in
  if not h.Host.up then
    Error (Printf.sprintf "%s: %s" h.Host.host_name host_unreachable_reason)
  else begin
    let result =
      match
        Orchestrator.check_module ~config:(host_config config h) h.Host.cloud
          ~target_vm:vm ~module_name
      with
      | Ok outcome ->
          List.iter
            (fun w -> Meter.merge h.Host.meter w.Orchestrator.work_meter)
            outcome.Orchestrator.work;
          Ok outcome
      | Error _ as e -> e
    in
    Tel.add "federation.checks" 1;
    result
  end

type host_lists = {
  hl_host : int;
  hl_outcome : (Orchestrator.list_comparison, string) result;
}

type fleet_lists = {
  fl_per_host : host_lists list;
  fl_hosts_surveyed : int;
  fl_hosts_responded : int;
  fl_verdict : Report.verdict;
}

let survey_lists ?(config = default_config) topo =
  let hosts = Topology.hosts topo in
  Tel.with_span ~attrs:[ ("hosts", Int (List.length hosts)) ]
    "federation.lists"
  @@ fun _ ->
  let per_host =
    List.map
      (fun (h : Host.t) ->
        if not h.Host.up then
          { hl_host = h.Host.host_id; hl_outcome = Error host_unreachable_reason }
        else begin
          let jm = Meter.create () in
          let lc =
            Orchestrator.survey_module_lists ~config:(host_config config h)
              ~meter:jm h.Host.cloud
          in
          Meter.merge h.Host.meter jm;
          { hl_host = h.Host.host_id; hl_outcome = Ok lc }
        end)
      hosts
  in
  let responded =
    List.filter_map
      (fun hl ->
        match hl.hl_outcome with Ok lc -> Some lc | Error _ -> None)
      per_host
  in
  let surveyed = List.length hosts in
  let n_responded = List.length responded in
  let verdict =
    host_quorum_verdict config ~surveyed ~responded:n_responded @@ fun () ->
    if
      List.exists
        (fun lc -> lc.Orchestrator.lc_unreachable <> [])
        responded
    then Report.Degraded "VM list walks unreachable within a host"
    else if
      List.exists
        (fun lc -> lc.Orchestrator.lc_discrepancies <> [])
        responded
    then Report.Infected
    else Report.Intact
  in
  {
    fl_per_host = per_host;
    fl_hosts_surveyed = surveyed;
    fl_hosts_responded = n_responded;
    fl_verdict = verdict;
  }

let exit_code r = Exit_code.of_verdict r.fb_verdict

let exit_code_lists r = Exit_code.of_verdict r.fl_verdict

let verdict_name = function
  | Report.Intact -> "INTACT"
  | Report.Infected -> "INFECTED"
  | Report.Degraded _ -> "DEGRADED"

let vm_list vms =
  if vms = [] then "-"
  else
    String.concat "," (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) vms)

let to_table ?(costs = Costs.default) topo r =
  let row v =
    let h = Topology.host topo v.hv_host in
    match v.hv_outcome with
    | Host_unreachable reason ->
        [ v.hv_name;
          Printf.sprintf "r%d/k%d" v.hv_region v.hv_rack;
          string_of_int v.hv_cohort; "UNREACHABLE"; "-"; "-"; "-"; reason ]
    | Host_surveyed { sv_survey = s; sv_elapsed_s; _ } ->
        [
          v.hv_name;
          Printf.sprintf "r%d/k%d" v.hv_region v.hv_rack;
          string_of_int v.hv_cohort;
          (if List.mem v.hv_host r.fb_deviant_hosts then "DEVIANT HOST"
           else verdict_name s.Report.s_verdict);
          vm_list s.Report.deviant_vms;
          vm_list
            (if List.length r.fb_votes > 1 && s.Report.s_voted = 0 then []
             else s.Report.missing_on);
          Printf.sprintf "%.2fs" sv_elapsed_s;
          Printf.sprintf "clock %.2fs" (Host.clock_s costs h);
        ]
  in
  Mc_util.Table.render
    ~header:
      [ "host"; "locus"; "level"; "verdict"; "deviant"; "missing"; "took";
        "local clock" ]
    (List.map row r.fb_votes)

let summary r =
  match r.fb_verdict with
  | Report.Intact ->
      Printf.sprintf "FLEET INTACT: %s consistent across %d host(s), %d cohort(s)"
        r.fb_module r.fb_hosts_responded (List.length r.fb_cohorts)
  | Report.Infected ->
      Printf.sprintf
        "FLEET INFECTED: %s — %d deviant VM(s), %d missing, %d deviant host(s)"
        r.fb_module
        (List.length r.fb_deviant_vms)
        (List.length r.fb_missing_vms)
        (List.length r.fb_deviant_hosts)
  | Report.Degraded reason -> Printf.sprintf "FLEET DEGRADED: %s" reason

let to_json r =
  let open Mc_util.Json in
  let pair_list l =
    List
      (List.map
         (fun (h, vm) -> Obj [ ("host", Int h); ("vm", Int vm) ])
         l)
  in
  Obj
    [
      ("schema", String "modchecker/federation@1");
      ("module", String r.fb_module);
      ("verdict", String (verdict_name r.fb_verdict));
      ( "degraded_reason",
        match r.fb_verdict with
        | Report.Degraded reason -> String reason
        | _ -> Null );
      ("hosts_surveyed", Int r.fb_hosts_surveyed);
      ("hosts_responded", Int r.fb_hosts_responded);
      ( "unreachable_hosts",
        List
          (List.map
             (fun (h, reason) ->
               Obj [ ("host", Int h); ("reason", String reason) ])
             r.fb_unreachable_hosts) );
      ("deviant_vms", pair_list r.fb_deviant_vms);
      ("missing_vms", pair_list r.fb_missing_vms);
      ("deviant_hosts", List (List.map (fun h -> Int h) r.fb_deviant_hosts));
      ( "cohorts",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("level", Int c.ch_level);
                   ("hosts", List (List.map (fun h -> Int h) c.ch_hosts));
                   ( "agreement",
                     List
                       (List.map
                          (fun g -> List (List.map (fun h -> Int h) g))
                          c.ch_agreement) );
                   ( "deviant_hosts",
                     List (List.map (fun h -> Int h) c.ch_deviant_hosts) );
                 ])
             r.fb_cohorts) );
      ("fleet_cpu_s", Float r.fb_fleet_cpu_s);
      ("critical_path_s", Float r.fb_critical_path_s);
    ]
