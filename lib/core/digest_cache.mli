(** Footprint-keyed memoization of per-VM introspection results.

    An entry stores a value computed from one VM's memory together with the
    exact set of (pfn, stamp) pairs that were read to compute it (the
    session's {!Mc_vmi.Vmi.footprint}) and the {!origin} it was read under.
    Because introspection reads are deterministic and a page's write stamp
    names its content ({!Mc_hypervisor.Xenctl.page_version}), the value is
    guaranteed unchanged while {!Mc_hypervisor.Xenctl.stale_pfns} finds
    no page of that footprint moved — so a [probe] prices one hypercall plus a
    per-pfn bitmap scan instead of re-mapping, re-parsing, and re-hashing
    the module.

    The footprint covers {e everything} the session touched: the LDR list
    pages walked to find the module, the page-table pages used to
    translate, and the module pages themselves. A guest write to any of
    them invalidates the entry. Stamps survive a snapshot and its
    restores, so a restored VM's entries are revalidated by their
    footprints rather than rebuilt: an entry from an older epoch is
    judged by its stamps when it was read under the current address-space
    root and no foreign shim was installed then or is now. A reboot
    writes fresh stamps, so its entries come back dirty.

    Probes and stores are mutex-guarded so parallel sweep workers can share
    one cache. Hit/miss totals land on the [digest_cache.hits] /
    [digest_cache.misses] telemetry counters, and entries carried across
    an epoch on [digest_cache.revalidated] (see {!probe_delta}). *)

type origin = {
  o_epoch : int;
      (** The memory epoch ({!Mc_hypervisor.Xenctl.memory_epoch}); in a
          stored entry, the epoch it was last validated in. *)
  o_cr3 : int;  (** The address-space root the value was read under. *)
  o_shim : bool;  (** A foreign shim was installed during the read. *)
}
(** What a footprint's stamps cannot tell about a read. *)

val origin : Mc_hypervisor.Dom.t -> origin
(** [origin dom] is the domain's current epoch, CR3 and shim state.
    Dom0-local bookkeeping, unmetered. Take it before the read that
    produces the value to {!store}. *)

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
    current, metering the staleness check. An entry from an older epoch
    is revalidated as {!probe_delta} does and, when current, carried into
    the new epoch. A stale or unusable entry is dropped — but
    only that exact entry: the staleness check runs outside the lock, and
    a value stored concurrently under the same key by another worker must
    not be evicted with it. *)

type 'a delta =
  | Fresh of { fresh_value : 'a; fresh_revalidated : bool }
      (** Footprint current; the value stands. [fresh_revalidated]: the
          entry came from an older epoch and now stands in this one. *)
  | Stale of {
      stale_value : 'a;
      stale_origin : origin;
          (** The origin to {!store} the refreshed value under. *)
      stale_footprint : (int * int) array;
      stale_dirty : int list;
          (** Footprint pfns whose stamp moved, sorted by pfn. *)
      stale_revalidated : bool;  (** The entry came from an older epoch. *)
    }
      (** Some pages hold other contents (written, or restored to other
          bytes): the prior value plus exactly which pages changed, so
          the caller can refresh O(dirty) of it and re-{!store}. The
          entry itself is dropped. *)
  | Missing
      (** No entry, or an older epoch's entry read under another CR3 or
          through a foreign shim, or with a shim installed now (nothing
          salvageable). *)

val probe_delta :
  ?meter:Mc_hypervisor.Meter.t ->
  'a t ->
  Mc_hypervisor.Dom.t ->
  vm:int ->
  key:string ->
  'a delta
(** [probe_delta t dom ~vm ~key] is {!probe} with culprit attribution via
    {!Mc_hypervisor.Xenctl.stale_pfns}: same price (one hypercall plus a
    per-pfn scan), but a stale entry comes back as [Stale] with the dirty
    pfn subset instead of a bare miss. [Fresh] counts as a telemetry hit,
    [Missing] as a miss, and [Stale] on the separate
    [digest_cache.stale_partial] counter. A [Fresh] entry from an older
    epoch is re-stamped with the current one and counts on
    [digest_cache.revalidated]. Only the caller knows whether it carries
    a revalidated [Stale] entry into the epoch (its refresh may fail, or
    the dirty pages may be more than it can refresh), so a caller that
    stores the refresh adds to that counter itself. *)

val store :
  'a t ->
  vm:int ->
  key:string ->
  origin:origin ->
  footprint:(int * int) array ->
  'a ->
  unit
(** [store t ~vm ~key ~origin ~footprint v] records [v], read under
    [origin], as valid while the footprint's pages keep the given
    stamps. *)

val peek : 'a t -> vm:int -> key:string -> epoch:int -> 'a option
(** [peek t ~vm ~key ~epoch] is the cached value when an entry exists and
    was last validated in [epoch] (stored, or revalidated by a probe),
    {e without} a staleness probe: Dom0-local bookkeeping (no guest access, unmetered, no telemetry hit/miss), the
    value as of its last store. It is how the attestation path reads the
    Merkle root a just-serviced request left behind — the root the
    verdict was actually computed from, which is exactly what the ledger
    must anchor. *)

val footprint_pfns : 'a t -> vm:int -> key:string -> epoch:int -> int list option
(** [footprint_pfns t ~vm ~key ~epoch] is the pfn set of the entry's
    footprint when one exists and was last validated in [epoch], else
    [None]. Dom0-local bookkeeping (no guest access, unmetered): it is how the
    event-driven patrol learns {e which} frames to write-trap — the exact
    pages a future staleness probe would inspect. *)

val generation : 'a t -> vm:int -> int
(** [generation t ~vm] counts the entries of [vm] stored or dropped so
    far (0 before the first). Two equal readings bracket no change to
    that VM's footprints — {!tamper} rewrites values only, and a
    revalidation only moves an entry's epoch — so a caller deriving
    something from {!footprint_pfns} can skip the derivation while the generation and the VM's memory epoch both stand still.
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
