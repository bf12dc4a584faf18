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

type fingerprint = (string * string) list
(** A VM's module identity for digest comparison: each artifact's display
    kind paired with the digest of its canonical bytes
    ({!Checker.own}), sorted by kind. Computed independently
    per VM, so it is cacheable. *)

type merkle_print = private {
  mp_base : int;  (** The module's load base on this VM. *)
  mp_flat : (string * string) list;
      (** Header artifacts: (kind name, flat hex digest). *)
  mp_sections : (string * int * Rva.slots option * Mc_md5.Merkle.t) list;
      (** Section-data artifacts: (kind name, section RVA, the slot table
          the section was stripped with or [None] for raw bytes, Merkle
          tree over the canonical bytes, one leaf per page). A leaf
          refresh strips with the same table. *)
  mp_page_index : (int * (string * int) list) list;
      (** Guest pfn → the (kind name, leaf index) pairs whose canonical
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
  inc_pages : (int, int * Mc_vmi.Vmi.page_cache) Hashtbl.t;
      (** vm → the memory epoch its shared, version-checked page cache
          maps, and the cache; replaced once the VM's epoch moves. *)
  inc_mutex : Mutex.t;
}
(** Carry-over state for incremental checking, shared across sweeps (and
    across parallel workers) of one patrol — or across {e every} request
    of one engine. *)

val create_incremental : unit -> incremental

(** How a check or survey should run: execution mode, comparison set,
    caching, and the availability policy. One value of this
    record replaces the former [?mode ?others ?incremental
    ?quorum] optional arguments on every entry point. A per-VM task
    always runs to completion: only deterministic bounds (bounded
    fault retries, the LDR walk budget, {!Searcher.max_module_size})
    limit it, never a clock. *)
module Config : sig
  type nonrec t = {
    mode : mode;
    others : int list option;
        (** Comparison VMs for {!check_module}; [None] means the target's
            version cohort — the rest of the pool when it is homogeneous.
            Ignored by {!survey} (full mesh by definition). *)
    incremental : incremental option;
        (** Shared carry-over state. With it, {!check_module} and
            {!survey} compare memoized per-VM Merkle prints: a VM with k
            dirty module pages refreshes at the cost of k leaf hashes
            plus O(log n) interior nodes ({!Digest_cache.probe_delta}
            names the dirty frames), and a deviant pair's divergent pages
            are localized by tree descent before escalation. Check
            verdicts are unchanged — root equality is digest equality; an
            escalated survey compares by print class and reaches the same
            verdict (see {!survey}). With it,
            {!survey_module_lists} also reuses cached listings. *)
    quorum : float;
        (** Minimum responding fraction of the surveyed VMs for a verdict
            to count; below it the verdict is [Degraded]. *)
  }

  val default : t
  (** Sequential, whole pool, pairwise, non-incremental, quorum
      {!Report.default_quorum}. *)

  val with_mode : mode -> t -> t

  val with_others : int list -> t -> t

  val with_incremental : incremental -> t -> t

  val with_merkle : bool -> t -> t
  (** The identity: incremental checking always memoizes Merkle prints,
      so there is no separate switch left. Kept only so existing callers
      still compile; it will be removed. *)

  val with_quorum : float -> t -> t
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
    cannot be introspected at all (fault-plan retries exhausted) is
    excluded from the vote and listed in the report's [unreachable]
    field. When fewer than [config.quorum] of the
    comparison VMs respond, the report's verdict is [Degraded].

    With [config.incremental], a check takes the Merkle fast path: the
    target's and every comparison VM's memoized Merkle prints are built
    on a cache miss, refreshed via log-dirty staleness probes (O(dirty)
    like the survey's) otherwise, and their reloc-canonical fingerprints
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
    Without [config.incremental] every pair is compared with Algorithm 2
    (O(t²) comparisons, the paper's vote). When [meter] is given, all work is
    counted into it (under its phases); in [Parallel] mode each job
    meters into its own meter and the counts are merged in after the
    join.

    With [config.incremental], the survey compares the derived
    fingerprints of per-VM Merkle prints memoized in the digest cache: a
    VM whose relevant pages are untouched since the last sweep costs one
    log-dirty staleness probe instead of a full map→parse→hash pipeline,
    one with k dirty section pages re-hashes k leaves, and equal prints
    prove a match with O(t) hashing. The reloc-canonical form can
    only reconcile {e clean} copies (and hashes a section raw when no
    golden table fits its header), so any fingerprint disagreement
    within a version cohort descends the deviant pair's trees (logging
    the divergent pages) and then escalates to the byte level (counted
    under the ["survey.incremental_escalations"] telemetry counter). The
    escalation goes by print class: the lowest VM of each
    class of equal prints is fetched afresh and the k representatives
    are compared pairwise with Algorithm 2 (k(k−1)/2 pairs, one memo). A
    pair inside a class matches (print-equal copies always match), and
    the representatives' matches join classes into groups. Algorithm 2
    is a heuristic, though: a real difference can happen to equal the
    load-base difference of one pair of VMs and be taken for an address
    for that pair only, which joins two groups in the full survey. So
    every pair of same-cohort VMs in different groups is checked from the
    representatives' bytes ({!Rva.may_reconcile} on the bytes where they
    differ outside the reloc slots, with each member's copy rebuilt from
    its load base), and the pairs this cannot rule out are fetched and
    compared too. The agreement classes, deviants and verdict equal the
    full survey's; of [pairwise_matches], only a pair across two classes
    of one group carries its representatives' result. [missing_on] and
    [unreachable_on] come from the probe pass. A one-VM infection on n
    VMs usually costs 2 fetches and 1 pair instead of n fetches and
    n(n−1)/2 pairs (an ["escalate"] span with [classes], [reps] and
    [member_pairs] attributes, and the ["survey.escalation_reps"] and
    ["survey.escalation_member_pairs"] counters, record it).
    A class escalation with a copy that does not come back fetched (a
    fault or absence) falls back to the full survey, which
    re-fetches every VM. A clean steady-state pool
    never escalates.

    An unreachable VM (fault-plan retries exhausted) is excluded from the
    vote and from
    [missing_on], listed in [unreachable_on], and never cached; when
    fewer than [config.quorum] of the pool responds, [s_verdict] is
    [Degraded]. *)

val may_match_across :
  diverging:(string -> (int * int) list option) ->
  Checker.side ->
  Checker.side ->
  bx:int ->
  by:int ->
  bool
(** [may_match_across ~diverging a b ~bx ~by] is [false] only if a copy
    print-equal to side [a] but loaded at [bx] certainly mismatches,
    under {!Checker.compare_pair}, a copy print-equal to side [b] but
    loaded at [by]. Print-equal copies differ only inside the slots of
    the tables their sides were canonicalized with, by their load-base
    difference, so the two copies are rebuilt from [a] and [b] wherever
    {!Rva.may_reconcile} reads them; the sides are not written.
    [diverging kind] bounds where [a] and [b] can differ outside the
    slots ([None]: the whole section). An escalated {!survey} fetches and
    compares only the member pairs this does not rule out, reusing the
    representatives' sides. *)

val fetch_with_vmi :
  Mc_vmi.Vmi.t ->
  vm:int ->
  module_name:string ->
  meter:Mc_hypervisor.Meter.t ->
  (Searcher.module_info * Artifact.t list) option
(** [fetch_with_vmi vmi ~vm ~module_name ~meter] is the one fetch every
    check, survey and print build goes through: Module-Searcher finds the
    module and copies its image, Module-Parser cuts it into artifacts
    (phased on [meter], under ["searcher"] and ["parser"] spans). [None]
    when the module is absent, implausibly sized or does not parse; a
    {!Mc_vmi.Vmi.Fault} propagates. The image is read into the calling
    domain's image buffer, lent to the parser and reused by that domain's
    next fetch of the same [SizeOfImage]; every byte is rewritten on each
    fetch and the artifacts are private copies, so the result never
    depends on an earlier fetch. A domain retains at most one such buffer,
    of at most {!Searcher.max_module_size} bytes. *)

val slot_tables : ?version:int -> string -> Checker.slot_tables
(** [slot_tables ~version name] answers, for a section-data artifact,
    the validated slot table ({!Rva.slots_of_relocs}) of the golden
    section of the same name at that patch level (default 1); the table
    carries the golden section's RVA and length, and {!Checker} strips
    with it only a guest section that has both. Each (lowercased name,
    version) is parsed once and memoized process-wide; a lookup reads that
    memo and never adds to it, so no guest header can grow it. Safe to
    call from several domains. A golden image that fails to parse yields
    no tables, silently: for a cold check they decide only how often the
    canonical shortcut applies. *)

val print_slot_tables : ?version:int -> string -> Checker.slot_tables
(** {!slot_tables} as the print path reads them (Merkle prints and
    {!reference_fingerprint}). When the catalog image cannot be built or
    fails to parse, every call logs a warning and bumps the
    [digest.reloc_fallbacks] telemetry counter: prints then keep their
    base-dependent bytes, which can turn clean load-base differences into
    deviations, so the fallback is deliberately loud. *)

val golden_tables_cached : unit -> int
(** The number of (module, patch level) golden entries memoized so far. *)

val reference_fingerprint :
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_hypervisor.Cloud.t ->
  vm:int ->
  module_name:string ->
  (fingerprint, string) result
(** [reference_fingerprint cloud ~vm ~module_name] is the VM's
    base-independent identity for the module: artifacts fetched with the
    usual fault handling and hashed in the canonical form
    ({!Checker.own}) under the {!print_slot_tables} of the
    build matching the VM's patch level. Two clean copies of the same build
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
