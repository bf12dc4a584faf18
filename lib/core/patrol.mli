(** The patrol service: ModChecker as a continuously running cloud
    monitor.

    The paper positions ModChecker as an "initial light-weight consistency
    check" that triggers deeper analysis. This module operationalizes
    that: it sweeps a set of modules across the pool on the simulated
    cloud clock, raising alarms for hash deviations, missing modules, and
    module-list discrepancies, and accounting both the CPU it burned and
    the wall time each sweep cost under the current guest load. The
    interval/time-to-detect trade-off it exposes is measured by the bench
    harness.

    There is one clock loop, {!run_session}, and one executor
    abstraction, {!Events.session}: a session bundles the config, the
    cloud, the incremental caches and the [survey]/[lists] closures that
    do the checking — in-process orchestrator calls
    ({!Events.in_process}, what {!run} uses) unless a caller passes its
    own to {!Events.create}. The {!trigger} picks the schedule the
    loop runs over that session: periodic polling sweeps, or write traps
    with a slow safety sweep. *)

type alarm_kind =
  | Hash_deviation  (** A VM's copy fails the majority vote. *)
  | Missing_module  (** A watched module is absent from a VM. *)
  | List_discrepancy  (** Module-list comparison found a hidden module. *)
  | Quorum_loss
      (** Too few VMs answered the sweep for its vote to mean anything
          (or the list walk lost VMs to faults). An availability alarm,
          deliberately distinct from every integrity alarm: a sweep that
          degrades raises this and {e only} this for the affected module,
          so fault bursts can never masquerade as infections. *)
  | Anchor_mismatch
      (** The two Dom0 read channels disagree over a cached watch
          footprint page: the foreign mapping (which an in-guest,
          SEVurity-style adversary can interpose on) returned different
          bytes than the hypervisor's own physical read path. Evidence
          the {e checker's view} is being tampered with — raised only by
          sweeps run with [audit_anchors]. *)

type alarm = {
  at : float;  (** Virtual time the sweep that saw it completed. *)
  alarm_module : string;
  alarm_vms : int list;
  kind : alarm_kind;
}

type config = {
  watch : string list;  (** Modules checked each sweep. *)
  interval_s : float;  (** Idle time between sweep starts (minimum). *)
  costs : Mc_hypervisor.Costs.t;
  compare_lists : bool;  (** Also run the DKOM list comparison. *)
  incremental : bool;
      (** Keep log-dirty tracking armed on every guest and memoize per-VM
          fingerprints across sweeps: a steady-state sweep prices as
          staleness probes plus re-checks of only the VMs whose relevant
          pages were written. Detection verdicts are unchanged. *)
  audit_anchors : bool;
      (** Each sweep additionally cross-checks the foreign-mapping read
          channel against the hypervisor's physical read path over every
          cached watch footprint page, raising [Anchor_mismatch] on any
          disagreement ({!Orchestrator.audit_anchors}). Requires
          [incremental] (the footprints live in its caches); without it
          the audit has nothing to vouch for and is skipped. Off by
          default: the CLI arms it only for [patrol --adversary] runs
          with [--incremental] or [--event-driven], because the audit
          multiplies a sweep's Dom0 CPU (5.8× on a 4-VM incremental
          patrol). *)
  check : Orchestrator.Config.t;
      (** How each survey runs: comparison set, quorum. For in-process
          sessions {!Events.in_process} points [incremental] at the
          session's caches when [incremental] above is on. *)
}

val default_config : config
(** Watches the standard catalog, 30 s interval, one worker, list
    comparison on, non-incremental, {!Orchestrator.Config.default}
    checking. *)

(** What schedules the checks. *)
type trigger =
  | Poll
      (** Full sweeps every [interval_s]; timed events wait for the next
          sweep. *)
  | Traps
      (** Write traps on every page backing a watch source: a baseline
          sweep at t=0 arms them, each event is followed at once by a
          targeted reaction, and a safety sweep runs every
          [20 × interval_s]. *)

type outcome = {
  alarms : alarm list;  (** In raising order; duplicates across sweeps kept. *)
  sweeps : int;  (** Full sweeps (every check, when polling). *)
  reactions : int;
      (** Trap-triggered targeted checks (always 0 when polling). *)
  virtual_elapsed : float;  (** Clock at the end of the run. *)
  cpu_spent : float;  (** Dom0 CPU-seconds consumed by checking. *)
  mean_sweep_wall : float;  (** Over sweeps and reactions alike. *)
  sweep_cpus : float list;
      (** Per-full-sweep CPU-seconds, in sweep order — the
          first/steady-state split the incremental experiments read.
          Reaction costs are in [cpu_spent] but not listed here. *)
  latencies_s : float list;
      (** Trap-to-alarm detection latencies, one per integrity alarm
          whose trap time is known, in raising order (empty when
          polling). *)
}

type sweep_work = {
  sw_surveys : (string * Report.survey * Mc_hypervisor.Meter.t) list;
      (** One entry per watched module: its survey and the meter that
          priced it (each meter is one schedulable job). *)
  sw_lists : (Orchestrator.list_comparison * Mc_hypervisor.Meter.t) option;
      (** The DKOM list comparison, when the sweep ran one. *)
  sw_anchors : (string * int) list;
      (** Sorted [(module, vm)] pairs where the read-channel audit found
          the foreign mapping lying about a footprint page ([[]] when
          the audit did not run or found nothing); each becomes an
          [Anchor_mismatch] alarm. *)
  sw_overhead : Mc_hypervisor.Meter.t option;
      (** Maintenance work outside any survey (e.g. log-dirty arm and
          dirty-bitmap drain), priced into the sweep like a job. *)
}
(** Everything one sweep observed and what it cost. Alarms derive from
    it the same way for every sweep and reaction: a degraded survey
    raises [Quorum_loss] and nothing else, and list discrepancies naming
    a watched module fold into its [Missing_module] alarm. *)

(** Checking sessions. A session is the patrol's executor: it bundles
    the config, the cloud, the incremental caches and the checking
    closures, and runs every sweep and reaction through one body
    (survey, list walk, anchor audit, pricing, alarms).

    A polling sweep surveys the whole watch list (keeping log-dirty
    tracking armed when [config.incremental], its metered overhead
    priced in). Under traps the session keeps every page backing the
    watched modules (their section footprints, their LDR entries, and
    the [PsLoadedModuleList] walk) under hypervisor write traps, and on
    each trap re-checks {e only the affected watch sources},
    immediately. The page sets come straight from the digest caches'
    footprints — the same pages a staleness probe would inspect — so
    arming requires a populated cache: {!Events.baseline} runs one full
    sweep and arms from its footprints. *)
module Events : sig
  type session

  type reaction = {
    rx_work : sweep_work;  (** What was checked and what it metered. *)
    rx_alarms : alarm list;  (** Stamped with the reaction's finish time. *)
    rx_wall : float;  (** Virtual wall time of the batch. *)
    rx_cpu : float;  (** Dom0 CPU-seconds of the batch. *)
    rx_traps : int;  (** Write-trap events drained pool-wide. *)
    rx_latencies : float list;
        (** Guest-write-to-alarm latency of each integrity alarm whose
            triggering trap is known; also fed to the
            [patrol.detection_latency_s] telemetry histogram. *)
  }

  val create :
    ?config:config ->
    inc:Orchestrator.incremental ->
    survey:(high:bool -> string -> string * Report.survey * Mc_hypervisor.Meter.t) ->
    lists:
      (high:bool ->
      unit ->
      (Orchestrator.list_comparison * Mc_hypervisor.Meter.t) option) ->
    Mc_hypervisor.Cloud.t ->
    session
  (** [create ~inc ~survey ~lists cloud] builds a session around the
      caller's checking closures — in-process orchestrator calls
      ({!in_process}), or the caller's own wrappers around them (a
      benchmark timing each call, say). [survey ~high m]
      surveys module [m] pool-wide (with [high] hinting at queue
      priority: [true] for trap reactions, [false] for safety sweeps)
      and must run under a config sharing [inc], so its footprints land
      where the session arms from. [lists] likewise runs the DKOM list
      comparison; it is only invoked when [config.compare_lists]. *)

  val in_process : ?config:config -> Mc_hypervisor.Cloud.t -> session
  (** The session {!run} uses: {!Orchestrator.survey} and
      {!Orchestrator.survey_module_lists} called directly under
      [config.check]. Its caches are [config.check.incremental] when
      set, else fresh; the surveys use them when [config.incremental]
      (set it for a trap session). *)

  val set_now : session -> float -> unit
  (** Advance every domain's trap clock to the session's virtual [now] —
      call before mutating the cloud at a virtual time, so the traps
      those writes raise are stamped correctly. *)

  val baseline : session -> now:float -> reaction
  (** Full sweep of every watch source regardless of traps (draining and
      attributing any pending ones), then re-arm from the fresh
      footprints, as {!react} does. Both the initial arming step (every
      VM is re-armed: none was armed yet) and the periodic safety net. *)

  val react : session -> now:float -> reaction option
  (** Drain trap events pool-wide and re-check only the watch sources
      whose pages were written (a VM whose memory epoch changed —
      reboot/restore, which silently voids its watches — counts as a
      trap on everything it watched). [None] when nothing fired: an
      idle pool costs nothing, not even a hypercall.

      Afterwards a VM's trap map (which frames back which watch source)
      is re-derived from {!Orchestrator.watch_pfns} and the arm/unarm
      delta issued exactly for the VMs where, since it was last armed,
      its memory epoch changed (or it was never armed), a trap event of
      it was drained in this reaction, or an entry of it in the
      session's Merkle or list digest cache was stored or dropped
      ({!Digest_cache.generation}). Every other VM's map would come out
      the same, so it is skipped, host-side too. A VM that is due
      re-derives only the watch sources whose footprint moved and re-arms
      the frames its traps disarmed; a first arm or a new epoch derives
      the whole map. Either way every VM's armed frames are the union of
      its current footprints.

      Telemetry: one [patrol.rearm] span per re-arm pass, with
      attributes [vms] (VMs re-derived), [armed] and [dropped] (frames
      write-protected and released), and one [patrol.rearm_vms] counter
      add of the same [vms] per pass. *)
end

val run_session :
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  ?trigger:trigger ->
  until:float ->
  Events.session ->
  outcome
(** [run_session ~until session] is the patrol's clock loop, from
    virtual time 0 until [until], over the session's config and cloud.
    [events] are timed cloud mutations (e.g. staging an infection at
    t=70 s). [trigger] (default [Poll]) picks the schedule:

    - [Poll]: events fire just before the first sweep starting at or
      after their time; the next sweep starts at
      [max (start + interval_s) finish].
    - [Traps]: a baseline sweep at t=0 arms the watches; each event is
      followed at once by {!Events.react}, so detection happens at the
      event's time plus the targeted re-check's wall time; a safety
      sweep runs every [20 × interval_s].

    Every event with [t <= until] fires (even after the final sweep);
    later ones never do. Raises [Invalid_argument] unless
    [config.interval_s > 0]. *)

val run :
  ?config:config ->
  ?events:(float * (Mc_hypervisor.Cloud.t -> unit)) list ->
  ?trigger:trigger ->
  Mc_hypervisor.Cloud.t ->
  until:float ->
  outcome
(** [run cloud ~until] is {!run_session} over {!Events.in_process}. [Traps]
    forces [config.incremental] (watches are armed from the caches). *)

val time_to_detect :
  outcome -> module_name:string -> infected_at:float -> float option
(** [time_to_detect outcome ~module_name ~infected_at] is the delay from
    infection to the first {e integrity} alarm ([Hash_deviation],
    [Missing_module], or [Anchor_mismatch]) naming the module at or
    after that time; [None] when no such alarm fired. Availability
    ([Quorum_loss]) and list-comparison alarms never count — a degraded
    sweep naming the module is not a detection. *)

val alarm_kind_string : alarm_kind -> string
(** Human-readable label, e.g. ["missing module"]. *)

val alarm_kind_key : alarm_kind -> string
(** Stable machine key, e.g. ["missing_module"] — used in JSON exports
    and by tooling that matches alarms structurally. *)

