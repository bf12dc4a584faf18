module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Xenctl = Mc_hypervisor.Xenctl
module Phys = Mc_memsim.Phys

(* A cached mapping is a read-only live view of the frame (or, under a
   foreign shim, the shim's copy). It is only served while the guest is
   in the same memory epoch (no reboot/restore swapped the backing store)
   and the frame's write version is the one read at map time: after a
   guest write the view shows bytes of a version nobody validated, so the
   entry is remapped, never read. *)
type cache_entry = { ce_epoch : int; ce_version : int; ce_data : Bytes.t }

(* The table is mutex-guarded because one cache may be shared across
   concurrently running sessions of the same VM (the engine services
   overlapping requests from different shards). The lock covers only the
   table operations, never a foreign map: two racing misses both map and
   the later store wins, which is correct because both mapped the same
   versioned frame. *)
type page_cache = {
  pc_mutex : Mutex.t;
  pc_tbl : (int, cache_entry) Hashtbl.t;
}

let create_cache () : page_cache =
  { pc_mutex = Mutex.create (); pc_tbl = Hashtbl.create 64 }

let cache_locked c f =
  Mutex.lock c.pc_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.pc_mutex) f

type t = {
  t_dom : Dom.t;
  profile : Symbols.profile;
  meter : Meter.t option;
  cache : page_cache;
  touched : (int, int) Hashtbl.t;
      (** pfn → version observed when this session read it; the session's
          read footprint. *)
  max_attempts : int;
}

exception Invalid_address of int

exception
  Fault of {
    f_vm : int;
    f_pfn : int;
    f_kind : Mc_memsim.Faultplan.kind;
    f_attempts : int;
  }

let fault_message = function
  | Fault f ->
      Printf.sprintf "%s fault on pfn 0x%x of Dom%d after %d attempt(s)"
        (Mc_memsim.Faultplan.kind_name f.f_kind)
        f.f_pfn (f.f_vm + 1) f.f_attempts
  | e -> Printexc.to_string e

let page = Phys.frame_size

let default_max_attempts = 6

(* Registry counters alongside the per-phase meter: the meter is scoped to
   one checking job, these accumulate across the whole process run. *)
let tadd = Mc_telemetry.Registry.add

let init ?meter ?cache ?(max_attempts = default_max_attempts) dom profile =
  if max_attempts < 1 then invalid_arg "Vmi.init: max_attempts must be >= 1";
  (match meter with Some m -> Meter.add_vm_sessions m 1 | None -> ());
  tadd "vmi.sessions" 1;
  let cache = match cache with Some c -> c | None -> create_cache () in
  { t_dom = dom; profile; meter; cache; touched = Hashtbl.create 64;
    max_attempts }

let dom t = t.t_dom

(* Pause/unpause hypercalls can fail under a fault plan; they are cheap
   control-plane calls, so retry in place (successive calls are distinct
   trials of the plan's sequenced decision). *)
let retrying_pause_op t op =
  let rec go attempt =
    match op t.t_dom with
    | () -> ()
    | exception (Xenctl.Pause_fault _ as e) ->
        tadd "vmi.faults.pause" 1;
        if attempt >= t.max_attempts then raise e
        else begin
          (match t.meter with
          | Some m -> Meter.add_retry_backoffs m 1
          | None -> ());
          tadd "vmi.retries" 1;
          go (attempt + 1)
        end
  in
  go 1

let pause t = retrying_pause_op t Xenctl.pause

let flush_cache t =
  cache_locked t.cache (fun () -> Hashtbl.reset t.cache.pc_tbl)

let resume t =
  retrying_pause_op t Xenctl.resume;
  (* Belt and braces: version checks would catch stale entries anyway, but
     after the guest runs freely nothing cached is worth trusting. *)
  flush_cache t

let read_ksym t name = Symbols.lookup_exn t.profile name

(* Map with bounded retry: transient failures and torn copies may succeed
   on the next attempt (each attempt is an independent, deterministic
   trial of the fault plan), a paged-out frame never will. Every retry
   is priced as a backoff plus the repeated map; a session that exhausts
   its attempts surfaces a typed [Fault] so the orchestrator can count
   the VM as unreachable instead of silently dropping it. *)
let map_with_retry t pfn =
  let rec go attempt =
    match Xenctl.map_foreign_page ?meter:t.meter ~attempt t.t_dom pfn with
    | data -> data
    | exception Xenctl.Map_fault { mf_kind; _ } ->
        tadd ("vmi.faults." ^ Mc_memsim.Faultplan.kind_name mf_kind) 1;
        if Mc_memsim.Faultplan.retryable mf_kind && attempt < t.max_attempts
        then begin
          (match t.meter with
          | Some m -> Meter.add_retry_backoffs m 1
          | None -> ());
          tadd "vmi.retries" 1;
          go (attempt + 1)
        end
        else begin
          tadd "vmi.fault_aborts" 1;
          raise
            (Fault
               {
                 f_vm = t.t_dom.Dom.dom_id - 1;
                 f_pfn = pfn;
                 f_kind = mf_kind;
                 f_attempts = attempt;
               })
        end
  in
  go 1

let mapped_page t pfn =
  let remap () =
    let data = map_with_retry t pfn in
    tadd "vmi.pages_mapped" 1;
    let epoch = Xenctl.memory_epoch t.t_dom in
    let ver = Xenctl.page_version t.t_dom pfn in
    cache_locked t.cache (fun () ->
        Hashtbl.replace t.cache.pc_tbl pfn
          { ce_epoch = epoch; ce_version = ver; ce_data = data });
    Hashtbl.replace t.touched pfn ver;
    data
  in
  match cache_locked t.cache (fun () -> Hashtbl.find_opt t.cache.pc_tbl pfn) with
  | Some ce
    when ce.ce_epoch = Xenctl.memory_epoch t.t_dom
         && ce.ce_version = Xenctl.page_version t.t_dom pfn ->
      tadd "vmi.page_cache_hits" 1;
      (match t.meter with Some m -> Meter.add_pfns_checked m 1 | None -> ());
      Hashtbl.replace t.touched pfn ce.ce_version;
      ce.ce_data
  | Some _ ->
      tadd "vmi.pages_stale" 1;
      remap ()
  | None -> remap ()

let footprint t =
  let arr = Array.make (Hashtbl.length t.touched) (0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun pfn v ->
      arr.(!i) <- (pfn, v);
      incr i)
    t.touched;
  Array.sort compare arr;
  arr

let read_pa t paddr len =
  let dst = Bytes.create len in
  let rec loop paddr off len =
    if len > 0 then begin
      let pfn = paddr / page and poff = paddr mod page in
      let chunk = min len (page - poff) in
      Bytes.blit (mapped_page t pfn) poff dst off chunk;
      (match t.meter with Some m -> Meter.add_bytes_copied m chunk | None -> ());
      tadd "vmi.bytes_copied" chunk;
      loop (paddr + chunk) (off + chunk) (len - chunk)
    end
  in
  loop paddr 0 len;
  dst

let read_pa_u32 t paddr =
  let b = read_pa t paddr 4 in
  Bytes.get_int32_le b 0

(* The same two-level walk the guest MMU performs, but executed from the
   outside against mapped pages (cf. Mc_memsim.Pagetable.walk, which the
   guest itself uses). *)
let translate_kv2p t va =
  let cr3 = Xenctl.get_vcpu_cr3 t.t_dom in
  let vpn = va lsr 12 in
  let pde_idx = (vpn lsr 10) land 0x3FF and pte_idx = vpn land 0x3FF in
  let pde = read_pa_u32 t (cr3 + (pde_idx * 4)) in
  if Int32.logand pde 1l = 0l then None
  else begin
    let table_pa = Int32.to_int (Int32.shift_right_logical pde 12) land 0xFFFFF * page in
    let pte = read_pa_u32 t (table_pa + (pte_idx * 4)) in
    if Int32.logand pte 1l = 0l then None
    else
      Some
        ((Int32.to_int (Int32.shift_right_logical pte 12) land 0xFFFFF * page)
        + (va land 0xFFF))
  end

let read_va t va len =
  let dst = Bytes.create len in
  let rec loop va off len =
    if len > 0 then begin
      match translate_kv2p t va with
      | None -> raise (Invalid_address va)
      | Some pa ->
          let chunk = min len (page - (va mod page)) in
          let pfn = pa / page and poff = pa mod page in
          Bytes.blit (mapped_page t pfn) poff dst off chunk;
          (match t.meter with
          | Some m -> Meter.add_bytes_copied m chunk
          | None -> ());
          tadd "vmi.bytes_copied" chunk;
          loop (va + chunk) (off + chunk) (len - chunk)
    end
  in
  loop va 0 len;
  dst

let try_read_va t va len =
  match read_va t va len with
  | b -> Some b
  | exception Invalid_address _ -> None

let read_va_padded_into t va dst =
  let rec loop va off len =
    if len > 0 then begin
      let chunk = min len (page - (va mod page)) in
      (match translate_kv2p t va with
      | None -> Bytes.fill dst off chunk '\000'
      | Some pa ->
          let pfn = pa / page and poff = pa mod page in
          Bytes.blit (mapped_page t pfn) poff dst off chunk;
          (match t.meter with
          | Some m -> Meter.add_bytes_copied m chunk
          | None -> ());
          tadd "vmi.bytes_copied" chunk);
      loop (va + chunk) (off + chunk) (len - chunk)
    end
  in
  loop va 0 (Bytes.length dst)

let read_va_padded t va len =
  let dst = Bytes.create len in
  read_va_padded_into t va dst;
  dst

let read_va_u32 t va =
  let b = read_va t va 4 in
  Bytes.get_int32_le b 0

let read_va_u32_int t va = Mc_util.Le.int_of_u32 (read_va_u32 t va)

let read_va_u16 t va =
  let b = read_va t va 2 in
  Bytes.get_uint16_le b 0

let pfns_of_va_range t va len =
  let rec loop va len acc =
    if len <= 0 then List.rev acc
    else
      let chunk = min len (page - (va mod page)) in
      let entry =
        match translate_kv2p t va with
        | None -> None
        | Some pa -> Some (pa / page)
      in
      loop (va + chunk) (len - chunk) (entry :: acc)
  in
  loop va len []

let pages_cached t =
  cache_locked t.cache (fun () -> Hashtbl.length t.cache.pc_tbl)
