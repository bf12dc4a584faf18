(** Virtual machine introspection — the libVMI-equivalent.

    A handle gives Dom0 read-only access to one guest's memory: physical
    reads via foreign page mapping, virtual reads via a walk of the guest's
    own page tables (CR3 from the vCPU context), and kernel symbol lookup
    through the OS profile. Mapped pages are cached (libVMI's page cache),
    so the meter counts each foreign page once rather than once per access.

    A cache entry is a read-only live view of the guest frame
    ({!Mc_hypervisor.Xenctl.map_foreign_page}), not a copy: a guest write
    shows through it. So every entry remembers the guest's memory epoch
    and the frame's write stamp at map time, and a hit is only served
    while both still match; otherwise the frame is mapped again and the
    footprint records the new stamp. A guest write (or a reboot) can
    therefore never be masked by the cache, nor be read half-validated.
    Unlike a digest-cache entry, a page-cache entry is never carried
    across a restore even though stamps survive one: it is a view of the
    replaced memory's frame, which shows whatever that memory was last
    written with, possibly bytes of a later stamp than the one recorded.
    Nothing writes through an entry: every read copies out of it. That
    makes the cache safe to share across sessions and across sweeps —
    pass your own {!page_cache} to {!init} to do so. *)

type t

type page_cache
(** A version-checked pfn → live-mapping cache, shareable between
    sessions on the same guest. *)

val create_cache : unit -> page_cache

exception Invalid_address of int
(** Raised with the guest VA whose translation failed. *)

exception
  Fault of {
    f_vm : int;  (** 0-based DomU index. *)
    f_pfn : int;
    f_kind : Mc_memsim.Faultplan.kind;
    f_attempts : int;  (** Map attempts made, including the failed last. *)
  }
(** An introspection read could not complete: the frame is paged out, or
    transient/torn failures persisted through every retry. The session's
    partial reads must not be trusted (nor cached) — the orchestrator
    counts the VM as unreachable for this check. *)

val fault_message : exn -> string
(** Human-readable rendering of a {!Fault} (falls back to
    [Printexc.to_string] for other exceptions). *)

val default_max_attempts : int
(** Mapping attempts per page before a retryable fault aborts the read
    (6: at a 5 % transient rate the per-page abort probability is
    [0.05^6 ≈ 1.6e-8]). *)

val init :
  ?meter:Mc_hypervisor.Meter.t ->
  ?cache:page_cache ->
  ?max_attempts:int ->
  Mc_hypervisor.Dom.t ->
  Symbols.profile ->
  t
(** [init dom profile] opens an introspection session (metered as one VM
    session). [?cache] substitutes a shared page cache for the default
    fresh per-session one. [?max_attempts] (default
    {!default_max_attempts}, must be ≥ 1) bounds mapping retries; each
    retry is priced as one backoff plus the repeated map. *)

val dom : t -> Mc_hypervisor.Dom.t

val pause : t -> unit
(** Pause the guest's vCPUs for a consistent view. *)

val resume : t -> unit
(** Resume the guest and drop the page cache — once the guest runs freely,
    nothing cached is worth trusting. *)

val read_ksym : t -> string -> int
(** [read_ksym t name] is the kernel VA of [name] per the profile.
    Raises [Not_found] for unknown symbols. *)

val translate_kv2p : t -> int -> int option
(** [translate_kv2p t va] walks the guest's page directory/tables (read
    through the foreign mapping) and returns the physical address. *)

val read_pa : t -> int -> int -> Bytes.t
(** [read_pa t paddr len] reads guest-physical memory. *)

val read_va : t -> int -> int -> Bytes.t
(** [read_va t va len] reads guest-virtual memory page by page — the
    paper's observation that Module-Searcher "has to access the memory by
    pages" is this chunking. Raises [Invalid_address] on unmapped pages. *)

val try_read_va : t -> int -> int -> Bytes.t option

val read_va_padded : t -> int -> int -> Bytes.t
(** [read_va_padded t va len] is [read_va] except unmapped pages read as
    zeros — standard memory-forensics behaviour for paged-out or discarded
    regions (a loaded module's freed [.reloc] pages, for instance). *)

val read_va_padded_into : t -> int -> Bytes.t -> unit
(** [read_va_padded_into t va dst] is {!read_va_padded} of
    [Bytes.length dst] bytes into [dst]: every byte is written, unmapped
    chunks as zeros, so nothing an earlier read left in [dst] survives. A
    fault raised part way leaves [dst] partly written. *)

val read_va_u32 : t -> int -> int32

val read_va_u32_int : t -> int -> int

val read_va_u16 : t -> int -> int

val footprint : t -> (int * int) array
(** [footprint t] is every (pfn, version-as-read) pair this session has
    touched, sorted by pfn. Because reads are deterministic, a later
    computation over the same pages is guaranteed to produce the same
    result while {!Mc_hypervisor.Xenctl.stale_pfns} finds no page of this
    footprint moved — the keying contract of the digest cache. *)

val pfns_of_va_range : t -> int -> int -> int option list
(** [pfns_of_va_range t va len] names the guest frame behind each
    page-sized chunk of the VA range, in address order ([None] for an
    unmapped chunk). The page-table walk goes through the session's page
    cache and counts into its footprint like any other read — this is how
    the Merkle refresh learns which cached leaves a dirty pfn backs. *)

val pages_cached : t -> int
(** Number of distinct guest frames currently in the page cache. *)

val flush_cache : t -> unit
(** Drop the page cache (e.g. after the guest resumed and may have written
    to memory). *)
