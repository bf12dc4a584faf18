(** The hypervisor control interface Dom0 tooling uses — the parts of
    libxc/xenctrl that libVMI needs: vCPU context access and foreign page
    mapping. All accesses are metered so the timing model can price them. *)

exception Map_fault of { mf_pfn : int; mf_kind : Mc_memsim.Faultplan.kind }
(** A foreign-page mapping failed per the domain's fault plan. The meter
    was already charged for the attempt. *)

exception Pause_fault of { pf_dom : int }
(** A pause/unpause hypercall failed per the domain's fault plan; the
    domain's run state is unchanged. *)

val get_vcpu_cr3 : Dom.t -> int
(** [get_vcpu_cr3 dom] is the guest's page-directory base, as read from the
    virtual CPU's control registers. *)

val pause : Dom.t -> unit
(** May raise {!Pause_fault} when the domain has a fault plan. *)

val resume : Dom.t -> unit
(** May raise {!Pause_fault} when the domain has a fault plan. *)

val map_foreign_page : ?meter:Meter.t -> ?attempt:int -> Dom.t -> int -> Bytes.t
(** [map_foreign_page dom pfn] maps guest frame [pfn] into Dom0, bumping
    the meter's page count. The result is a read-only live view
    ({!Mc_memsim.Phys.read_page_foreign}): the guest's frame itself,
    unless a foreign shim is installed, when it is the shim's private
    copy. Nothing may write through it, and a caller that keeps it must
    validate it by {!memory_epoch} and {!page_version} (read at map time)
    before each use: the stamp alone does not vouch for a view of a
    replaced memory's frame. When the domain carries a fault plan the map
    may raise {!Map_fault}; [attempt] (1-based) identifies the retry so
    the plan can decide each attempt independently yet
    deterministically. *)

val read_foreign_pa :
  ?meter:Meter.t -> Dom.t -> int -> Bytes.t -> int -> int -> unit
(** [read_foreign_pa dom paddr dst off len] reads guest-physical memory,
    metering one page map per page boundary the range touches plus the
    bytes copied. A zero-length read is a no-op and meters nothing. *)

(** {1 Write traps}

    The analogue of Xen's vm_event write-monitoring: Dom0 write-protects
    chosen guest frames; the first guest write to one raises a trap that
    logs a timestamped event and drops the protection (so hot pages
    coalesce to one event per arm cycle). Like the log-dirty domctls,
    these are control-plane calls and are not subject to the domain's
    fault plan. *)

val watch_pages : ?meter:Meter.t -> Dom.t -> int list -> unit
(** [watch_pages dom pfns] write-protects the given frames. One metered
    hypercall for the batch plus one watch-arm unit per frame. *)

val unwatch_pages : ?meter:Meter.t -> Dom.t -> int list -> unit
(** Drop write protection without trapping; priced like {!watch_pages}. *)

val watched_pfns : Dom.t -> int list
(** Currently write-protected frames, ascending (test introspection; a
    real Dom0 tracks this itself, so it is unmetered). *)

val pending_trap_events : Dom.t -> int
(** Undelivered trap events queued on the domain (unmetered
    introspection). *)

val drain_events : ?meter:Meter.t -> Dom.t -> Mc_memsim.Phys.watch_event list
(** [drain_events dom] returns and clears the domain's queued write-trap
    events, FIFO. Priced as one hypercall plus one trap-event unit per
    event delivered; an empty queue costs nothing (delivery is push — an
    idle domain never wakes Dom0). Each event's frame was disarmed by
    its trap; re-arm with {!watch_pages}. *)

val set_trap_clock : Dom.t -> float -> unit
(** Advance the virtual timestamp stamped onto subsequent trap events.
    Free: simulation plumbing standing in for the hypervisor's own
    clock. *)

(** {1 Log-dirty tracking}

    The analogue of Xen's [XEN_DOMCTL_SHADOW_OP_ENABLE_LOGDIRTY] /
    [SHADOW_OP_PEEK] / [SHADOW_OP_CLEAN] interface. Each call is one
    metered hypercall round trip. *)

val enable_log_dirty : ?meter:Meter.t -> Dom.t -> unit
(** Start recording which guest frames are written. *)

val disable_log_dirty : ?meter:Meter.t -> Dom.t -> unit
(** Stop recording and drop the accumulated dirty set. *)

val peek_dirty : ?meter:Meter.t -> Dom.t -> int list
(** Dirty pfns accumulated since the last clean, without clearing. *)

val clean_dirty : ?meter:Meter.t -> Dom.t -> int list
(** Dirty pfns accumulated since the last clean, atomically clearing the
    bitmap (Xen's peek-and-clean). *)

val memory_epoch : Dom.t -> int
(** An identifier for the guest's current physical memory instance. It
    changes whenever the backing memory is replaced wholesale (reboot,
    snapshot restore). A live mapping is a view of one instance's frame,
    so it is only valid within the epoch it was mapped in. *)

val page_version : Dom.t -> int -> int
(** [page_version dom pfn] is the write stamp of frame [pfn] (0 if the
    frame was never written). Stamps are process-unique and survive a
    snapshot and its restores ({!Mc_memsim.Phys.page_version}), so a
    [(pfn, stamp)] pair names one content in any epoch. *)

val stale_pfns : ?meter:Meter.t -> Dom.t -> (int * int) array -> int list
(** [stale_pfns dom footprint] is the footprint subset whose
    [(pfn, stamp)] pair no longer matches the frame's current stamp,
    sorted as given. [[]] means those frames hold the same bytes as when
    the footprint was taken, even across a restore. Priced as one
    hypercall plus one bitmap probe per pfn — the cost of an incremental
    staleness check; the digest cache and the O(dirty) Merkle refresh
    key on it. *)

val foreign_shim_installed : Dom.t -> bool
(** Whether a foreign shim currently rewrites the guest's foreign
    mappings ({!Mc_memsim.Phys.set_foreign_shim}). Dom0-local
    bookkeeping, unmetered. A restore sheds a shim without changing any
    stamp, so a value read through one is only good in its own epoch. *)
