(** Module-Searcher (§III-B.1, §IV-A) — the only component that touches
    guest memory.

    Over a VMI session it resolves [PsLoadedModuleList], traverses the
    doubly linked list of LDR_DATA_TABLE_ENTRY nodes (Fig. 2), finds the
    requested module by name, and copies the whole in-memory module —
    page by page, which is why this component dominates ModChecker's
    runtime (§V-C.1) — into a Dom0 buffer. *)

type module_info = {
  mi_name : string;  (** BaseDllName. *)
  mi_full_name : string;
  mi_base : int;  (** DllBase. *)
  mi_size : int;  (** SizeOfImage. *)
  mi_entry_va : int;  (** VA of the LDR entry itself. *)
}

val max_module_size : int
(** Sanity cap on a module's SizeOfImage (64 MiB); a corrupted LDR entry
    must not drive huge Dom0 allocations. *)

val list_modules : ?meter:Mc_hypervisor.Meter.t -> Mc_vmi.Vmi.t -> module_info list
(** [list_modules vmi] walks the load list. The walk is defensive: it is
    bounded against cycles, and stops (returning what it has) at a null or
    unreadable link — which is also what a wrong OS profile produces, since
    the symbol address then reads zeros. *)

val find_module :
  ?meter:Mc_hypervisor.Meter.t -> Mc_vmi.Vmi.t -> name:string -> module_info option
(** [find_module vmi ~name] matches BaseDllName case-insensitively,
    stopping at the first hit. *)

val copy_module :
  ?buffer:(int -> Bytes.t) -> Mc_vmi.Vmi.t -> module_info -> Bytes.t
(** [copy_module vmi info] reads [mi_size] bytes from [mi_base] with one
    {!Mc_vmi.Vmi.read_va_padded_into} call, which maps and copies page by
    page into the returned buffer; unmapped pages (discarded .reloc,
    paged-out data) read as zeros. The buffer is [buffer mi_size]
    (default a fresh [Bytes.create]); every byte of it is overwritten, so
    a caller may lend one it reuses. Raises [Invalid_argument] when
    [mi_size] is not in [1, max_module_size] or the buffer is not
    [mi_size] bytes. *)

val fetch :
  ?meter:Mc_hypervisor.Meter.t ->
  ?buffer:(int -> Bytes.t) ->
  Mc_vmi.Vmi.t ->
  name:string ->
  (module_info * Bytes.t) option
(** [fetch vmi ~name] is [find_module] followed by [copy_module]. *)
