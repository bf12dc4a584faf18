(** Footprint-keyed memoization of per-VM introspection results.

    An entry stores a value computed from one VM's memory together with the
    exact set of (pfn, version) pairs that were read to compute it (the
    session's {!Mc_vmi.Vmi.footprint}) and the memory epoch it was read in.
    Because introspection reads are deterministic, the value is guaranteed
    unchanged while {!Mc_hypervisor.Xenctl.pages_unchanged} holds for that
    footprint — so a [probe] prices one hypercall plus a per-pfn bitmap
    scan instead of re-mapping, re-parsing, and re-hashing the module.

    The footprint covers {e everything} the session touched: the LDR list
    pages walked to find the module, the page-table pages used to
    translate, and the module pages themselves. A guest write to any of
    them (or a reboot, which changes the epoch) invalidates the entry.

    Probes and stores are mutex-guarded so parallel sweep workers can share
    one cache. Hit/miss totals land on the [digest_cache.hits] /
    [digest_cache.misses] telemetry counters. *)

type 'a t

val create : unit -> 'a t

val probe :
  ?meter:Mc_hypervisor.Meter.t ->
  'a t ->
  Mc_hypervisor.Dom.t ->
  vm:int ->
  key:string ->
  'a option
(** [probe t dom ~vm ~key] is the cached value if its footprint is still
    current, metering the staleness check. A stale entry is dropped — but
    only that exact entry: the staleness check runs outside the lock, and
    a value stored concurrently under the same key by another worker must
    not be evicted with it. *)

type 'a delta =
  | Fresh of 'a  (** Footprint current; the value stands. *)
  | Stale of {
      stale_value : 'a;
      stale_epoch : int;
      stale_footprint : (int * int) array;
      stale_dirty : int list;
          (** Footprint pfns whose write version moved, sorted by pfn. *)
    }
      (** Same epoch but some pages were written: the prior value plus
          exactly which pages changed, so the caller can refresh
          O(dirty) of it and re-{!store}. The entry itself is dropped. *)
  | Missing  (** No entry, or the epoch changed (nothing salvageable). *)

val probe_delta :
  ?meter:Mc_hypervisor.Meter.t ->
  'a t ->
  Mc_hypervisor.Dom.t ->
  vm:int ->
  key:string ->
  'a delta
(** [probe_delta t dom ~vm ~key] is {!probe} with culprit attribution via
    {!Mc_hypervisor.Xenctl.stale_pfns}: same price (one hypercall plus a
    per-pfn scan), but a stale-in-epoch entry comes back as [Stale] with
    the dirty pfn subset instead of a bare miss. [Fresh] counts as a
    telemetry hit, [Missing] as a miss, and [Stale] on the separate
    [digest_cache.stale_partial] counter. *)

val store :
  'a t ->
  vm:int ->
  key:string ->
  epoch:int ->
  footprint:(int * int) array ->
  'a ->
  unit
(** [store t ~vm ~key ~epoch ~footprint v] records [v] as valid while the
    footprint's pages stay at the given versions within [epoch]. *)

val peek : 'a t -> vm:int -> key:string -> epoch:int -> 'a option
(** [peek t ~vm ~key ~epoch] is the cached value when an entry exists and
    was recorded in [epoch], {e without} a staleness probe: Dom0-local
    bookkeeping (no guest access, unmetered, no telemetry hit/miss), the
    value as of its last store. It is how the attestation path reads the
    Merkle root a just-serviced request left behind — the root the
    verdict was actually computed from, which is exactly what the ledger
    must anchor. *)

val footprint_pfns : 'a t -> vm:int -> key:string -> epoch:int -> int list option
(** [footprint_pfns t ~vm ~key ~epoch] is the pfn set of the entry's
    footprint when one exists and was recorded in [epoch], else [None].
    Dom0-local bookkeeping (no guest access, unmetered): it is how the
    event-driven patrol learns {e which} frames to write-trap — the exact
    pages a future staleness probe would inspect. *)

val generation : 'a t -> vm:int -> int
(** [generation t ~vm] counts the entries of [vm] stored or dropped so
    far (0 before the first). Two equal readings bracket no change to
    that VM's footprints — {!tamper} rewrites values only — so a caller
    deriving something from {!footprint_pfns} can skip the derivation
    while the generation and the VM's memory epoch both stand still.
    Dom0-local bookkeeping: unmetered, no telemetry. *)

val length : 'a t -> int
(** Number of live entries (for tests). *)

val tamper : 'a t -> (vm:int -> key:string -> 'a -> 'a option) -> int
(** [tamper t f] applies [f] to every cached value (with its (vm, key)
    identity), replacing those for which it returns [Some] while keeping
    their footprints valid, and returns how many entries changed.
    Test-only sabotage: it simulates a checker whose memoized results lie
    (e.g. one digest byte flipped), which the simulation harness's oracle
    must catch. Never used by production paths. *)
