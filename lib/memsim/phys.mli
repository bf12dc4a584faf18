(** Guest physical memory.

    Frames (4 KiB) are allocated sparsely on demand, so a 4 GiB guest
    physical address space costs only what the guest actually touches.
    Addresses are guest-physical byte addresses. *)

type t

val frame_size : int
(** 4096. *)

val create : ?max_frames:int -> unit -> t
(** [create ()] makes an empty physical memory; [max_frames] bounds the
    number of allocatable frames (default 65536 = 256 MiB). *)

val uid : t -> int
(** Process-unique id of this physical memory instance. A reboot or
    snapshot restore builds a fresh instance with a fresh uid. A live
    mapping ({!read_page_foreign}) is a view of one instance's frame, so
    it is only valid while the uid it was mapped under stands. *)

val write_generation : t -> int
(** Write counter: bumped once per frame touched by any {!write}.
    Monotonic for the lifetime of the instance. *)

val page_version : t -> int -> int
(** [page_version t pfn] is the frame's write stamp (0 until first
    written). Every {!write} that touches the frame, the single choke
    point for all guest mutation, gives it a fresh stamp from one
    process-wide counter, so stamps only grow. {!deep_copy} keeps the
    stamps with the bytes. A [(pfn, stamp)] pair therefore names one
    content in the memory it was written in, in every snapshot of it and
    in every copy restored from one, and never anything else: a fresh
    boot writes fresh stamps, and stamp 0 is an unwritten frame, zeros
    everywhere. *)

val set_log_dirty : t -> bool -> unit
(** [set_log_dirty t true] starts recording written frames into the dirty
    bitmap (Xen's [SHADOW_OP_ENABLE_LOGDIRTY] analogue); [false] stops and
    clears it. *)

val log_dirty_enabled : t -> bool

val peek_dirty : t -> int list
(** Frames written since log-dirty was enabled or last cleaned, ascending.
    Does not clear the bitmap. *)

val clean_dirty : t -> int list
(** Like {!peek_dirty} but atomically clears the bitmap — Xen's
    peek-and-clean hypercall. *)

type watch_event = {
  we_pfn : int;  (** the frame that was written *)
  we_at : float;  (** the watch clock at the moment of the write *)
  we_version : int;  (** the frame's write stamp after the write *)
}
(** One write trap: the first guest write to a watched frame. *)

val watch_frames : t -> int list -> unit
(** [watch_frames t pfns] write-protects the given frames. The first
    write to a watched frame enqueues a {!watch_event} and removes the
    protection (one trap per arm cycle — repeated writes coalesce until
    the frame is re-armed). Watching an already-watched frame is a
    no-op. *)

val unwatch_frames : t -> int list -> unit
(** Drop write protection from the given frames without trapping. *)

val watched_frames : t -> int list
(** Currently write-protected frames, ascending. *)

val set_watch_clock : t -> float -> unit
(** Set the timestamp stamped onto subsequent trap events. Phys has no
    clock of its own; the simulation driver advances this alongside its
    virtual clock. *)

val pending_watch_events : t -> int
(** Number of undelivered trap events. *)

val drain_watch_events : t -> watch_event list
(** Return all undelivered trap events in FIFO order and clear the
    queue. Each drained event's frame is no longer watched (the trap
    disarmed it); re-arm with {!watch_frames} after reacting. *)

val alloc_frame : t -> int
(** [alloc_frame t] reserves a fresh zeroed frame and returns its frame
    number (pfn). Raises [Failure] when [max_frames] is exhausted. *)

val frames_allocated : t -> int

val frame_exists : t -> int -> bool
(** [frame_exists t pfn] is true once [pfn] has been allocated. *)

val read : t -> int -> Bytes.t -> int -> int -> unit
(** [read t paddr dst dst_off len] copies guest-physical bytes into [dst];
    the range may cross frame boundaries. Reading an unallocated frame
    yields zeros (as real RAM reads of untouched pages would). *)

val write : t -> int -> Bytes.t -> int -> int -> unit
(** [write t paddr src src_off len] copies bytes into guest memory.
    Writing an unallocated frame raises [Invalid_argument] — the simulated
    MMU only maps allocated frames, so this catches wild writes. *)

val read_u32 : t -> int -> int32

val write_u32 : t -> int -> int32 -> unit

val deep_copy : t -> t
(** [deep_copy t] duplicates the whole physical memory (every allocated
    frame) — the substrate of VM snapshots. The copy keeps every frame's
    {!page_version} stamp (its bytes are the same), gets a fresh {!uid},
    and starts with log-dirty off, no watched frames, and an empty trap
    queue (write protection is a property of the live mapping, not of
    the bytes). *)

val read_page : t -> int -> Bytes.t
(** [read_page t pfn] copies out one whole frame (zeros if unallocated):
    the private copy a foreign shim is handed, and a snapshot of a page's
    current bytes. *)

val set_foreign_shim : t -> (int -> Bytes.t -> Bytes.t) option -> unit
(** [set_foreign_shim t (Some f)] interposes [f] on {!read_page_foreign}:
    every foreign (Dom0) page mapping returns [f pfn bytes] instead of the
    real frame contents, while guest-side reads and writes are untouched.
    This models a SEVurity-style adversary that controls what the checker
    sees without changing what the guest executes. [None] removes it. Like
    write watches, the shim is a property of the live mapping — a
    {!deep_copy} (reboot, snapshot restore) does not carry it over. *)

val foreign_shim_installed : t -> bool

val read_page_foreign : t -> int -> Bytes.t
(** The page as Dom0's foreign mapping sees it. With no shim installed
    this is a read-only {e live view}: the frame itself, not a copy, so a
    later guest write shows through it, as it does through a real Xen
    foreign mapping. An unallocated pfn maps to one zero frame shared by
    every memory. Nothing may write through a mapping. A caller that
    keeps one must validate it before each use by the memory's {!uid}
    and the frame's {!page_version} at map time; the bytes are only
    those of that stamp while both still match. The stamp alone is not
    enough: a view of a replaced memory's frame shows whatever that dead
    memory was last written with, which may be later than the stamp a
    restored copy carries. With a shim installed
    the result is [f pfn (read_page t pfn)], a private copy the shim may
    rewrite, and the frame is left untouched. Byte-granular physical
    reads ({!read}) bypass the shim: they model the hypervisor's own
    debug path, which an in-guest adversary cannot intercept. *)
