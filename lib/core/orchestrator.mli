(** The ModChecker driver: runs the Searcher → Parser → Checker pipeline
    from Dom0 across the VM pool and applies the majority vote.

    Sequential mode visits VMs one after another, as the paper's prototype
    does (and as its Fig. 7 linear growth reflects). Parallel mode maps the
    per-VM pipeline over a domain pool — the "parallel access of virtual
    machines' memory" the paper names as the natural enhancement.

    Every entry point takes one {!Config.t} — the same record the CLI,
    {!Patrol}, and [Mc_engine] build — instead of a sprawl of optional
    arguments, so defaulting logic lives in exactly one place. *)

type mode = Sequential | Parallel of Mc_parallel.Pool.t

type vm_work = { work_vm : int; work_meter : Mc_hypervisor.Meter.t }
(** Operation counts incurred on behalf of one compared VM — the unit the
    timing model schedules. *)

type outcome = {
  report : Report.module_report;
  work : vm_work list;  (** Target VM first, then each compared VM. *)
}

type survey_strategy =
  | Pairwise
      (** The paper's approach: compare every pair with Algorithm 2;
          O(t²) comparisons and hashes. *)
  | Canonical
      (** Extension: t-way canonicalization ({!Rva.canonicalize}) rewrites
          every copy's address slots to the pool's majority RVAs, then each
          copy is hashed once and compared by digest — O(t) hashing. *)

type fingerprint = (string * string) list
(** A VM's module identity for digest comparison: each artifact's display
    kind paired with its digest (section data reloc-adjusted before
    hashing), sorted by kind. Computed independently per VM, so it is
    cacheable. *)

type merkle_print = private {
  mp_base : int;  (** The module's load base on this VM. *)
  mp_flat : (string * string) list;
      (** Header artifacts: (kind name, flat hex digest). *)
  mp_sections : (string * int * Mc_md5.Merkle.t) list;
      (** Section-data artifacts: (kind name, section RVA, Merkle tree
          over the reloc-adjusted bytes, one leaf per page). *)
  mp_page_index : (int * (string * int) list) list;
      (** Guest pfn → the (kind name, leaf index) pairs whose adjusted
          content depends on that frame (a leaf depends on its own pages
          plus up to {!Rva.reloc_margin} bytes of each neighbour). *)
  mp_fingerprint : fingerprint;
      (** Derived: [mp_flat] plus each section's hex Merkle root, sorted
          by kind — compares exactly like {!fingerprint}. *)
  mp_root : string;
      (** Derived: the hex anchor digest {!merkle_root} reports, MD5 over
          [mp_fingerprint]. *)
}
(** One VM's Merkle representation of a module — the memoized value of
    the O(dirty) hot path. The two derived fields are computed once,
    when the print is built or refreshed, so a warm check and the
    serving loop's anchor lookup read them instead of re-deriving them
    per request. The record is [private] for that reason: a print can
    only be built here or through {!merkle_print_with_flat}, both of
    which re-derive, so the derived fields can never disagree with
    [mp_flat] and [mp_sections]. *)

val merkle_print_with_flat :
  merkle_print -> (string * string) list -> merkle_print
(** [merkle_print_with_flat mp flat] is [mp] with its header digests
    replaced by [flat] and the derived fields re-derived — for callers
    (the simtest sabotage step) that deliberately corrupt a cached
    print. *)

type incremental = {
  inc_merkle : merkle_print option Digest_cache.t;
      (** (vm, module) → Merkle print, or [None] for "absent on that VM"
          (absence is as cacheable as presence — the LDR walk's footprint
          keys it). Keeping the whole leaf vector (not just roots) is what
          lets a k-dirty-page probe refresh k leaves instead of re-hashing
          the section. *)
  inc_lists : string list Digest_cache.t;
      (** vm → lower-cased module-list walk result. *)
  inc_pages : (int, Mc_vmi.Vmi.page_cache) Hashtbl.t;
      (** vm → shared version-checked page cache. *)
  inc_mutex : Mutex.t;
}
(** Carry-over state for incremental checking, shared across sweeps (and
    across parallel workers) of one patrol — or across {e every} request
    of one engine. *)

val create_incremental : unit -> incremental

(** How a check or survey should run: execution mode, comparison set,
    strategy, caching, and the availability policy. One value of this
    record replaces the former [?mode ?others ?strategy ?incremental
    ?quorum ?deadline_s] optional arguments on every entry point. *)
module Config : sig
  type nonrec t = {
    mode : mode;
    others : int list option;
        (** Comparison VMs for {!check_module}; [None] means the target's
            version cohort — the rest of the pool when it is homogeneous.
            Ignored by {!survey} (full mesh by definition). *)
    strategy : survey_strategy;  (** Used by {!survey} only. *)
    incremental : incremental option;
        (** Shared carry-over state. With it, {!check_module} and
            {!survey} compare memoized per-VM Merkle prints: a VM with k
            dirty module pages refreshes at the cost of k leaf hashes
            plus O(log n) interior nodes ({!Digest_cache.probe_delta}
            names the dirty frames), and a deviant pair's divergent pages
            are localized by tree descent before escalation. Verdicts are
            unchanged — root equality is digest equality. With it,
            {!survey_module_lists} also reuses cached listings. *)
    quorum : float;
        (** Minimum responding fraction of the surveyed VMs for a verdict
            to count; below it the verdict is [Degraded]. *)
    deadline_s : float option;
        (** Per-task deadline, enforced in [Parallel] mode where a hung
            task can be abandoned. *)
  }

  val default : t
  (** Sequential, whole pool, pairwise, non-incremental, quorum
      {!Report.default_quorum}, no deadline. *)

  val with_mode : mode -> t -> t

  val with_others : int list -> t -> t

  val with_strategy : survey_strategy -> t -> t

  val with_incremental : incremental -> t -> t

  val with_merkle : bool -> t -> t
  (** The identity: incremental checking always memoizes Merkle prints,
      so there is no separate switch left. Kept only so existing callers
      still compile; it will be removed. *)

  val with_quorum : float -> t -> t

  val with_deadline : float -> t -> t
end

val check_module :
  ?config:Config.t ->
  Mc_hypervisor.Cloud.t ->
  target_vm:int ->
  module_name:string ->
  (outcome, string) result
(** [check_module cloud ~target_vm ~module_name] fetches the module from
    the target and from every comparison VM ([config.others] defaults to
    the target's version cohort — the whole rest of the pool when it is
    homogeneous), compares pairwise, and votes. Errors when the
    module is not loaded on the target, the target is unreachable, or no
    comparison VM is available. A module missing on a {e comparison} VM
    counts as a failed comparison, not an error; a comparison VM that
    cannot be introspected at all (fault-plan retries exhausted, or — in
    [Parallel] mode with a deadline — its task missed the per-check
    deadline) is excluded from the vote and listed in the report's
    [unreachable] field. When fewer than [config.quorum] of the
    comparison VMs respond, the report's verdict is [Degraded].

    With [config.incremental], a check takes the Merkle fast path: the
    target's and every comparison VM's memoized Merkle prints are built
    on a cache miss, refreshed via log-dirty staleness probes (O(dirty)
    like the survey's) otherwise, and their reloc-adjusted fingerprints
    compared directly; the full fetch-and-compare pipeline runs only
    when {e any} fingerprint disagrees — agreement is provable from
    fingerprints, but the artifact-level evidence a deviant report needs
    (and protection against identically-tampered copies fingerprinting
    as mutually deviant) requires the full path. Verdicts are therefore
    identical with and without the fast path; only the price differs
    (the [check.merkle_fast_path] / [check.merkle_escalations] telemetry
    counters record which path ran). *)

val survey :
  ?config:Config.t ->
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_hypervisor.Cloud.t ->
  module_name:string ->
  Report.survey
(** [survey cloud ~module_name] compares every VM's copy against every
    other and partitions the pool into consistent and deviant VMs — the
    "detect discrepancies and trigger deeper analysis" use of §III-B.
    Deviance is judged within each version cohort (VMs sharing a patch
    level): in a heterogeneous pool a legitimate version split shows up in
    [agreement_classes] but flags nobody, and an infected copy is outvoted
    by its own cohort. A homogeneous pool reduces to the paper's
    whole-pool rule.
    Both strategies produce the same verdicts (a property the tests
    check), differing only in cost. When [meter] is given, all work is
    counted into it (under its phases); in [Parallel] mode each job
    meters into its own meter and the counts are merged in after the
    join.

    With [config.incremental], the survey compares the derived
    fingerprints of per-VM Merkle prints memoized in the digest cache: a
    VM whose relevant pages are untouched since the last sweep costs one
    log-dirty staleness probe instead of a full map→parse→hash pipeline,
    one with k dirty section pages re-hashes k leaves, and the strategy
    is irrelevant. Reloc-guided adjustment can only reconcile {e clean}
    copies, so any fingerprint disagreement within a version cohort
    descends the deviant pair's trees (logging the divergent pages) and
    then escalates to the full cross-buffer survey (counted under the
    ["survey.incremental_escalations"] telemetry counter) — a clean
    steady-state pool never pays for this, and verdicts are unchanged
    either way.

    An unreachable VM (fault-plan retries exhausted, or its task past the
    deadline in [Parallel] mode) is excluded from the vote and from
    [missing_on], listed in [unreachable_on], and never cached; when
    fewer than [config.quorum] of the pool responds, [s_verdict] is
    [Degraded]. *)

val module_relocs : ?version:int -> string -> int list
(** Reloc slot RVAs of the golden (catalog) copy of the named module at
    the given patch level (default 1), used for base stripping of cached
    fingerprints. Each (lowercased name, version) is parsed once and
    memoized process-wide; safe to call from several domains. When the
    catalog image cannot be built or fails to parse, every call logs a
    warning, bumps the [digest.reloc_fallbacks] telemetry counter, and
    returns [] — fingerprints then keep their base-dependent bytes, which
    can turn clean load-base differences into deviations, so the fallback
    is deliberately loud. *)

val reference_fingerprint :
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_hypervisor.Cloud.t ->
  vm:int ->
  module_name:string ->
  (fingerprint, string) result
(** [reference_fingerprint cloud ~vm ~module_name] is the VM's
    base-independent identity for the module: artifacts fetched with the
    usual fault handling and section data reloc-stripped against the build
    matching the VM's patch level. Two clean copies of the same build
    agree on it across load bases {e and across pools} — the unit of the
    federation's cross-host vote. Errors when the module is absent or the
    VM unreachable. Work is metered into [meter] when given, else bridged
    to telemetry. *)

type list_discrepancy = {
  ld_module : string;
  present_on : int list;
  missing_on : int list;
}

type list_comparison = {
  lc_discrepancies : list_discrepancy list;
  lc_unreachable : (int * string) list;
      (** VMs whose list walk failed, with reasons. They are excluded
          from [missing_on] — an unreadable list is not evidence of a
          hidden module. *)
}

val list_walk :
  ?config:Config.t ->
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_hypervisor.Cloud.t ->
  vm:int ->
  (string list, string) result
(** One VM's walk of its kernel module list: the loaded module names,
    lowercased, or [Error reason] when faults made the walk unreachable
    (any other exception propagates). With [config.incremental] an
    unchanged list is answered from the cache. An [Error] VM has no
    listing at all: callers must leave it out of presence votes rather
    than count it as missing every module. *)

val survey_module_lists :
  ?config:Config.t ->
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_hypervisor.Cloud.t ->
  list_comparison
(** Extension: cross-VM comparison of the load lists themselves; a module
    present on most VMs but absent from a few is how a DKOM-hidden module
    betrays itself. Only non-uniform modules are returned. The list walks
    are metered into [meter] (under the Searcher phase) — they are real
    introspection work and price like it. Of [config] only
    [incremental] is consulted: with it, a VM whose list-walk pages are
    untouched reuses the cached listing. *)

type watch_source =
  | Watch_module of string
      (** A watched module: its LDR entry, the list pages walked to reach
          it, and its section footprint. *)
  | Watch_lists
      (** The module-list walk itself ([PsLoadedModuleList] and the LDR
          chain) — a trap here means a module was loaded, unloaded, or
          DKOM-unlinked. *)
(** What a trapped page was backing — the unit the event-driven patrol
    rechecks. *)

val watch_pfns :
  incremental ->
  Mc_hypervisor.Dom.t ->
  vm:int ->
  watch:string list ->
  (watch_source * int list) list
(** [watch_pfns inc dom ~vm ~watch] is, per watch source, the guest
    frames whose writes must re-trigger its check — read straight out of
    the digest caches' footprints (the cached Merkle prints plus the
    cached list walk). A source with no
    current-epoch cache entry maps to [[]]: it cannot be armed until a
    survey repopulates the cache. Dom0-local and unmetered. *)

val audit_anchors :
  ?meter:Mc_hypervisor.Meter.t ->
  incremental ->
  Mc_hypervisor.Cloud.t ->
  watch:string list ->
  (string * int) list
(** [audit_anchors inc cloud ~watch] cross-checks, for every VM and every
    cached watch footprint page of the watched modules, the page-granular
    foreign mapping (the channel all checker reads use — and the one a
    SEVurity-style in-guest adversary can interpose on) against the
    hypervisor's byte-granular physical read path (which in-guest code
    cannot reach). Returns the sorted [(module, vm)] pairs where the two
    channels disagree on at least one byte — each is a checker-tampering
    detection, not a guest-integrity verdict. Pages with no current-epoch
    footprint are skipped (nothing cached to vouch for), as are pages
    whose foreign map faults (a fault-plan dropout is not tampering).
    Metered: one page map plus one physical read per audited page. *)

val merkle_root :
  incremental ->
  Mc_hypervisor.Cloud.t ->
  vm:int ->
  module_name:string ->
  string option
(** [merkle_root inc cloud ~vm ~module_name] is the hex anchor digest of
    the VM's cached Merkle print for the module — MD5 over its derived
    fingerprint (flat digests plus per-section Merkle roots, sorted by
    kind) — or [None] when no current-epoch print is cached (module not
    yet checked with [Config.incremental], absent on that VM, or the VM
    rebooted since). Dom0-local and unmetered ({!Digest_cache.peek}):
    it reads the value the last check computed, which is exactly what an
    attestation entry for that check must anchor. Base-independent —
    clean copies of one build agree on it across VMs and hosts. *)
