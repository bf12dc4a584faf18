module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Xenctl = Mc_hypervisor.Xenctl
module Tel = Mc_telemetry.Registry

type origin = { o_epoch : int; o_cr3 : int; o_shim : bool }

let origin dom =
  {
    o_epoch = Xenctl.memory_epoch dom;
    o_cr3 = Xenctl.get_vcpu_cr3 dom;
    o_shim = Xenctl.foreign_shim_installed dom;
  }

type 'a entry = {
  e_origin : origin;  (** [o_epoch]: the epoch last validated in. *)
  e_footprint : (int * int) array;
  e_value : 'a;
}

type 'a t = {
  mutex : Mutex.t;
  tbl : (int * string, 'a entry) Hashtbl.t;  (** (vm, key) → entry *)
  gens : (int, int) Hashtbl.t;  (** vm → stores and drops so far *)
}

let create () =
  { mutex = Mutex.create (); tbl = Hashtbl.create 64; gens = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = locked t (fun () -> Hashtbl.length t.tbl)

(* Callers hold the lock. *)
let bump t vm =
  Hashtbl.replace t.gens vm
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.gens vm))

let generation t ~vm =
  locked t (fun () -> Option.value ~default:0 (Hashtbl.find_opt t.gens vm))

let store t ~vm ~key ~origin ~footprint value =
  locked t (fun () ->
      Hashtbl.replace t.tbl (vm, key)
        { e_origin = origin; e_footprint = footprint; e_value = value };
      bump t vm)

let validated t ~vm ~key ~epoch f =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (vm, key) with
      | Some e when e.e_origin.o_epoch = epoch -> Some (f e)
      | Some _ | None -> None)

let peek t ~vm ~key ~epoch = validated t ~vm ~key ~epoch (fun e -> e.e_value)

let footprint_pfns t ~vm ~key ~epoch =
  validated t ~vm ~key ~epoch (fun e ->
      Array.to_list (Array.map fst e.e_footprint))

let tamper t f =
  locked t (fun () ->
      let changed = ref 0 in
      let replacements =
        Hashtbl.fold
          (fun ((vm, key) as k) e acc ->
            match f ~vm ~key e.e_value with
            | Some v -> (k, { e with e_value = v }) :: acc
            | None -> acc)
          t.tbl []
      in
      List.iter
        (fun (k, e) ->
          incr changed;
          Hashtbl.replace t.tbl k e)
        replacements;
      !changed)

(* Remove the entry only if it is still physically the one we judged
   stale. The staleness hypercall runs outside the lock, so another
   worker may have stored a fresh value under the same key meanwhile;
   removing by key would evict that store — the next probe would pay a
   full recompute for nothing (and, worse, two racing probes could keep
   evicting each other's stores indefinitely). *)
let drop_if_same t ~vm ~key e =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (vm, key) with
      | Some e' when e' == e ->
          Hashtbl.remove t.tbl (vm, key);
          bump t vm
      | Some _ | None -> ())

(* Carry an entry found current into the epoch it was just validated in,
   under the same same-entry rule as [drop_if_same]. Its footprint does
   not change, so the generation does not move. *)
let restamp_if_same t ~vm ~key e origin =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (vm, key) with
      | Some e' when e' == e ->
          Hashtbl.replace t.tbl (vm, key) { e with e_origin = origin }
      | Some _ | None -> ())

(* Judge the entry under [(vm, key)] against the current memory. Within
   its epoch the stamps decide. Across epochs they still name contents,
   but two things a stamp cannot see void the entry: a different
   address-space root (the same frames would be walked from another page
   directory), and a foreign shim on either side (a restore sheds one
   without writing a frame, so what was read through it says nothing
   about the bytes). A void entry is dropped. An entry found current in
   a new epoch is carried into it. The probe is priced the same in every
   case: Dom0 issued the hypercall before it could tell. *)
type 'a judgement =
  | Current of 'a entry * bool  (** footprint current; carried across epochs *)
  | Dirty of 'a entry * int list * bool  (** the dirty pfns; carried *)
  | Unusable  (** no entry, or one its stamps cannot vouch for *)

let judge ?meter t dom ~vm ~key =
  match locked t (fun () -> Hashtbl.find_opt t.tbl (vm, key)) with
  | None -> Unusable
  | Some e ->
      let dirty = Xenctl.stale_pfns ?meter dom e.e_footprint in
      if e.e_origin.o_epoch = Xenctl.memory_epoch dom then
        if dirty = [] then Current (e, false) else Dirty (e, dirty, false)
      else
        let now = origin dom in
        if e.e_origin.o_cr3 <> now.o_cr3 || e.e_origin.o_shim || now.o_shim
        then begin
          drop_if_same t ~vm ~key e;
          Unusable
        end
        else if dirty = [] then begin
          restamp_if_same t ~vm ~key e now;
          Tel.add "digest_cache.revalidated" 1;
          Current (e, true)
        end
        else Dirty (e, dirty, true)

let probe ?meter t dom ~vm ~key =
  match judge ?meter t dom ~vm ~key with
  | Current (e, _) ->
      Tel.add "digest_cache.hits" 1;
      Some e.e_value
  | Dirty (e, _, _) ->
      (* A backing page was written, or holds other contents after a
         restore. Drop it; the caller will recompute and [store] a fresh
         entry. *)
      drop_if_same t ~vm ~key e;
      Tel.add "digest_cache.misses" 1;
      None
  | Unusable ->
      Tel.add "digest_cache.misses" 1;
      None

type 'a delta =
  | Fresh of { fresh_value : 'a; fresh_revalidated : bool }
  | Stale of {
      stale_value : 'a;
      stale_origin : origin;
      stale_footprint : (int * int) array;
      stale_dirty : int list;
      stale_revalidated : bool;
    }
  | Missing

let probe_delta ?meter t dom ~vm ~key =
  match judge ?meter t dom ~vm ~key with
  | Current (e, carried) ->
      Tel.add "digest_cache.hits" 1;
      Fresh { fresh_value = e.e_value; fresh_revalidated = carried }
  | Dirty (e, dirty, carried) ->
      (* Hand back the prior value with the culprits so the caller can
         refresh O(dirty) of it and store the result under the current
         origin. The entry is dropped (same-entry check as [probe]) so a
         failed refresh cannot leave a stale value behind. A refresh
         reads through whatever shim is installed now. *)
      drop_if_same t ~vm ~key e;
      Tel.add "digest_cache.stale_partial" 1;
      Stale
        {
          stale_value = e.e_value;
          stale_origin =
            (let now = origin dom in
             { now with o_shim = now.o_shim || e.e_origin.o_shim });
          stale_footprint = e.e_footprint;
          stale_dirty = dirty;
          stale_revalidated = carried;
        }
  | Unusable ->
      Tel.add "digest_cache.misses" 1;
      Missing
