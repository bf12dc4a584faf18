(** The fleet coordinator: fans checking work out to every host and
    merges the answers hierarchically. Each host is driven by direct
    {!Modchecker.Orchestrator} calls on its own pool, one host after
    another on the calling domain.

    Merge rules, bottom up:

    - {b Within a host}, the host's own pool votes exactly as a
      standalone {!Modchecker.Orchestrator} run would: per-VM majority
      within the host (itself cohort-aware, though a host is homogeneous
      by construction), quorum policy included. Host-local
      deviant and missing VMs surface in the fleet report tagged with
      their host.
    - {b Across hosts}, each responding host casts one ballot: the
      base-independent fingerprint of its majority agreement class
      ({!Modchecker.Orchestrator.reference_fingerprint} of a
      representative VM). Ballots are grouped by version cohort — hosts
      sharing a patch level — and within each cohort the strict-majority
      fingerprint is trusted ({!Modchecker.Report.cohort_deviants}, the
      same rule a pool survey applies to its VMs); hosts outside it are
      {e deviant hosts}.
      This is the layer that catches a coordinated pool-wide infection,
      which the host's internal vote cannot see, while a legitimate
      version split across cohorts flags nobody.
    - {b Host faults} fold into the verdict the way VM faults do one
      level down: a host that is down, or whose virtual response time
      exceeds [host_deadline_s] (a slow rack stretches it by the rack's
      latency factor), is unreachable — it casts no ballot, votes in no
      cohort, and counts against [host_quorum]. Below quorum the fleet
      verdict is [Degraded], which outranks [Infected] in exit severity:
      an answer you cannot trust beats a bad answer you can. *)

type config = {
  host_quorum : float;
      (** Fraction of hosts that must respond for a trustworthy verdict
          (default 1.0 — any whole-host outage degrades). *)
  host_deadline_s : float option;
      (** Virtual response-time bound per host; a slow rack can push a
          healthy host past it. *)
  check : Modchecker.Orchestrator.Config.t;
      (** The per-host checking config. Its [incremental] field, when
          set, is replaced by each host's own state ({!Host.incremental})
          — digest caches key on VM indices, which repeat across
          hosts. *)
  costs : Mc_hypervisor.Costs.t;  (** Pricing for host response times. *)
}

val default_config : config
(** Host quorum 1.0, no host deadline. *)

type surveyed = {
  sv_survey : Modchecker.Report.survey;  (** The host's own pool survey. *)
  sv_fingerprint : Modchecker.Orchestrator.fingerprint option;
      (** The host's ballot; [None] when every representative fetch
          failed (the host then joins no cohort vote). *)
  sv_elapsed_s : float;
      (** Virtual response time: metered work × rack latency factor. *)
}

type host_outcome = Host_unreachable of string | Host_surveyed of surveyed

type host_vote = {
  hv_host : int;
  hv_name : string;
  hv_rack : int;
  hv_region : int;
  hv_cohort : int;  (** The host's patch level. *)
  hv_outcome : host_outcome;
}

type cohort = {
  ch_level : int;
  ch_hosts : int list;  (** Hosts that cast a ballot in this cohort. *)
  ch_agreement : int list list;
      (** Hosts grouped by identical ballot, largest group first. *)
  ch_deviant_hosts : int list;
      (** Outvoted by their cohort's strict majority; everyone when the
          cohort has no majority. *)
}

type fleet_report = {
  fb_module : string;
  fb_votes : host_vote list;  (** One per host, in host order. *)
  fb_cohorts : cohort list;
  fb_deviant_vms : (int * int) list;  (** (host, VM), host-local findings. *)
  fb_missing_vms : (int * int) list;
      (** (host, VM); a module absent from a whole host is "not deployed
          there" and contributes nothing (single-host fleets keep the
          standalone semantics). *)
  fb_deviant_hosts : int list;  (** Union over cohorts. *)
  fb_unreachable_hosts : (int * string) list;
  fb_hosts_surveyed : int;
  fb_hosts_responded : int;
  fb_fleet_cpu_s : float;  (** Sum of host response times. *)
  fb_critical_path_s : float;
      (** Max host response time — the fan-out floor. *)
  fb_verdict : Modchecker.Report.verdict;
}

val survey :
  ?config:config -> Topology.t -> module_name:string -> fleet_report
(** Survey one module across the whole fleet and merge hierarchically. *)

val check :
  ?config:config ->
  Topology.t ->
  host:int ->
  vm:int ->
  module_name:string ->
  (Modchecker.Orchestrator.outcome, string) result
(** Route a one-VM check to its host (errors when the host is down);
    the comparison set is the host's own pool, exactly as a standalone
    [check_module] there. *)

type host_lists = {
  hl_host : int;
  hl_outcome : (Modchecker.Orchestrator.list_comparison, string) result;
      (** [Error] = host unreachable. *)
}

type fleet_lists = {
  fl_per_host : host_lists list;
  fl_hosts_surveyed : int;
  fl_hosts_responded : int;
  fl_verdict : Modchecker.Report.verdict;
      (** Degraded on host-quorum loss or unreachable list walks inside
          a host; Infected on any within-host discrepancy (the DKOM
          signal is host-local — module names repeat across levels, so
          lists are never compared across hosts). *)
}

val survey_lists : ?config:config -> Topology.t -> fleet_lists

val exit_code : fleet_report -> int
(** {!Modchecker.Exit_code} mapping of the fleet verdict. *)

val exit_code_lists : fleet_lists -> int

val to_table :
  ?costs:Mc_hypervisor.Costs.t -> Topology.t -> fleet_report -> string
(** Per-host vote table (verdict, deviants, response time, local
    clock). *)

val summary : fleet_report -> string
(** One line: ["FLEET INTACT: ..."] / ["FLEET INFECTED: ..."] /
    ["FLEET DEGRADED: ..."]. *)

val to_json : fleet_report -> Mc_util.Json.t
(** Schema [modchecker/federation@1]. *)

val verdict_name : Modchecker.Report.verdict -> string
