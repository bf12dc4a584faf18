let frame_size = 4096

(* Every Phys instance gets a process-unique id: the memory epoch. A
   reboot or snapshot restore builds a fresh instance, so the id says
   whether a live mapping (a view of one instance's frame) may still be
   trusted. *)
let uid_counter = Atomic.make 1

(* Every write gets a process-unique stamp from this one counter, not a
   per-memory count, and [deep_copy] keeps the stamps with the bytes. So
   a (pfn, stamp) pair names one content wherever it occurs: in the live
   memory, in its snapshot and in every copy restored from it, while a
   fresh boot writes fresh stamps. Stamp 0 is a frame never written,
   which reads as zeros in every memory. *)
let stamp_counter = Atomic.make 1

type watch_event = { we_pfn : int; we_at : float; we_version : int }

type t = {
  frames : (int, Bytes.t) Hashtbl.t;
  versions : (int, int) Hashtbl.t;  (** pfn → write stamp (absent = 0). *)
  dirty : (int, unit) Hashtbl.t;  (** log-dirty bitmap, while enabled. *)
  mutable log_dirty : bool;
  mutable write_gen : int;
  watched : (int, unit) Hashtbl.t;  (** write-protected frames. *)
  traps : watch_event Queue.t;  (** undelivered write-trap events, FIFO. *)
  mutable watch_clock : float;  (** timestamp stamped onto trap events. *)
  uid : int;
  max_frames : int;
  mutable next_pfn : int;
  mutable foreign_shim : (int -> Bytes.t -> Bytes.t) option;
      (** SEVurity-style tampering with the checker's view: when set,
          foreign (Dom0) page mappings pass through this function while
          the guest keeps reading/executing the real bytes. *)
}

let create ?(max_frames = 65536) () =
  {
    frames = Hashtbl.create 1024;
    versions = Hashtbl.create 1024;
    dirty = Hashtbl.create 64;
    log_dirty = false;
    write_gen = 0;
    watched = Hashtbl.create 16;
    traps = Queue.create ();
    watch_clock = 0.0;
    uid = Atomic.fetch_and_add uid_counter 1;
    max_frames;
    next_pfn = 1;
    foreign_shim = None;
  }
(* pfn 0 is reserved (a null physical page), as on real chipsets. *)

let uid t = t.uid

let write_generation t = t.write_gen

let page_version t pfn =
  Option.value ~default:0 (Hashtbl.find_opt t.versions pfn)

let touch t pfn =
  Hashtbl.replace t.versions pfn (Atomic.fetch_and_add stamp_counter 1);
  t.write_gen <- t.write_gen + 1;
  if t.log_dirty then Hashtbl.replace t.dirty pfn ();
  if Hashtbl.mem t.watched pfn then begin
    (* The first write faults; the handler records the event and drops
       the write protection so the guest can proceed at full speed.
       Further writes are trap-free until the page is re-armed, so
       repeated writes to a hot page coalesce into one event. *)
    Hashtbl.remove t.watched pfn;
    Queue.add
      { we_pfn = pfn; we_at = t.watch_clock; we_version = page_version t pfn }
      t.traps
  end

let watch_frames t pfns = List.iter (fun pfn -> Hashtbl.replace t.watched pfn ()) pfns

let unwatch_frames t pfns = List.iter (fun pfn -> Hashtbl.remove t.watched pfn) pfns

let watched_frames t =
  List.sort compare (Hashtbl.fold (fun pfn () acc -> pfn :: acc) t.watched [])

let set_watch_clock t now = t.watch_clock <- now

let pending_watch_events t = Queue.length t.traps

let drain_watch_events t =
  let evs = List.of_seq (Queue.to_seq t.traps) in
  Queue.clear t.traps;
  evs

let set_log_dirty t on =
  t.log_dirty <- on;
  if not on then Hashtbl.reset t.dirty

let log_dirty_enabled t = t.log_dirty

let peek_dirty t =
  List.sort compare (Hashtbl.fold (fun pfn () acc -> pfn :: acc) t.dirty [])

let clean_dirty t =
  let pfns = peek_dirty t in
  Hashtbl.reset t.dirty;
  pfns

let alloc_frame t =
  if Hashtbl.length t.frames >= t.max_frames then
    failwith "Phys.alloc_frame: out of physical memory";
  let pfn = t.next_pfn in
  t.next_pfn <- t.next_pfn + 1;
  Hashtbl.replace t.frames pfn (Bytes.make frame_size '\000');
  pfn

let frames_allocated t = Hashtbl.length t.frames

let frame_exists t pfn = Hashtbl.mem t.frames pfn

let rec read t paddr dst dst_off len =
  if len > 0 then begin
    let pfn = paddr / frame_size in
    let off = paddr mod frame_size in
    let chunk = min len (frame_size - off) in
    (match Hashtbl.find_opt t.frames pfn with
    | Some frame -> Bytes.blit frame off dst dst_off chunk
    | None -> Bytes.fill dst dst_off chunk '\000');
    read t (paddr + chunk) dst (dst_off + chunk) (len - chunk)
  end

let rec write t paddr src src_off len =
  if len > 0 then begin
    let pfn = paddr / frame_size in
    let off = paddr mod frame_size in
    let chunk = min len (frame_size - off) in
    (match Hashtbl.find_opt t.frames pfn with
    | Some frame ->
        Bytes.blit src src_off frame off chunk;
        touch t pfn
    | None ->
        invalid_arg
          (Printf.sprintf "Phys.write: unallocated frame 0x%x (paddr 0x%x)" pfn
             paddr));
    write t (paddr + chunk) src (src_off + chunk) (len - chunk)
  end

let read_u32 t paddr =
  let b = Bytes.create 4 in
  read t paddr b 0 4;
  Bytes.get_int32_le b 0

let write_u32 t paddr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write t paddr b 0 4

let deep_copy t =
  let frames = Hashtbl.create (Hashtbl.length t.frames) in
  Hashtbl.iter (fun pfn data -> Hashtbl.replace frames pfn (Bytes.copy data)) t.frames;
  {
    frames;
    versions = Hashtbl.copy t.versions;
    dirty = Hashtbl.create 64;
    log_dirty = false;
    watched = Hashtbl.create 16;
    traps = Queue.create ();
    watch_clock = 0.0;
    write_gen = t.write_gen;
    uid = Atomic.fetch_and_add uid_counter 1;
    max_frames = t.max_frames;
    next_pfn = t.next_pfn;
    (* Like watches, the shim is a property of the live mapping, not of
       the bytes: a reboot or restore sheds it. *)
    foreign_shim = None;
  }

let read_page t pfn =
  let b = Bytes.create frame_size in
  read t (pfn * frame_size) b 0 frame_size;
  b

let set_foreign_shim t shim = t.foreign_shim <- shim

let foreign_shim_installed t = t.foreign_shim <> None

(* What an unallocated pfn maps to, in every memory. Nothing writes
   through a foreign mapping, so one shared frame serves them all. *)
let zero_frame = Bytes.make frame_size '\000'

(* Without a shim the mapping is the frame itself, as a real foreign
   mapping aliases guest RAM: no copy is made. The shim is handed a
   private copy, since what it returns may be that copy. *)
let read_page_foreign t pfn =
  match t.foreign_shim with
  | None -> (
      match Hashtbl.find_opt t.frames pfn with
      | Some frame -> frame
      | None -> zero_frame)
  | Some shim -> shim pfn (read_page t pfn)
