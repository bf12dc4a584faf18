module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Xenctl = Mc_hypervisor.Xenctl
module Tel = Mc_telemetry.Registry

type 'a entry = {
  e_epoch : int;
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

let store t ~vm ~key ~epoch ~footprint value =
  locked t (fun () ->
      Hashtbl.replace t.tbl (vm, key)
        { e_epoch = epoch; e_footprint = footprint; e_value = value };
      bump t vm)

let peek t ~vm ~key ~epoch =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (vm, key) with
      | Some e when e.e_epoch = epoch -> Some e.e_value
      | Some _ | None -> None)

let footprint_pfns t ~vm ~key ~epoch =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (vm, key) with
      | Some e when e.e_epoch = epoch ->
          Some (Array.to_list (Array.map fst e.e_footprint))
      | Some _ | None -> None)

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

let probe ?meter t dom ~vm ~key =
  match locked t (fun () -> Hashtbl.find_opt t.tbl (vm, key)) with
  | Some e when Xenctl.pages_unchanged ?meter dom ~epoch:e.e_epoch e.e_footprint
    ->
      Tel.add "digest_cache.hits" 1;
      Some e.e_value
  | Some e ->
      (* Stale: a backing page was written, or the guest's memory was
         replaced wholesale (reboot/restore). Drop it; the caller will
         recompute and [store] a fresh entry. *)
      drop_if_same t ~vm ~key e;
      Tel.add "digest_cache.misses" 1;
      None
  | None ->
      Tel.add "digest_cache.misses" 1;
      None

type 'a delta =
  | Fresh of 'a
  | Stale of {
      stale_value : 'a;
      stale_epoch : int;
      stale_footprint : (int * int) array;
      stale_dirty : int list;
    }
  | Missing

let probe_delta ?meter t dom ~vm ~key =
  match locked t (fun () -> Hashtbl.find_opt t.tbl (vm, key)) with
  | None ->
      Tel.add "digest_cache.misses" 1;
      Missing
  | Some e -> (
      match Xenctl.stale_pfns ?meter dom ~epoch:e.e_epoch e.e_footprint with
      | Some [] ->
          Tel.add "digest_cache.hits" 1;
          Fresh e.e_value
      | Some dirty ->
          (* Same epoch, some pages written: hand back the prior value
             with the culprits so the caller can refresh O(dirty) of it.
             The entry is dropped (same-entry check as [probe]) so a
             failed refresh cannot leave a stale value behind. *)
          drop_if_same t ~vm ~key e;
          Tel.add "digest_cache.stale_partial" 1;
          Stale
            {
              stale_value = e.e_value;
              stale_epoch = e.e_epoch;
              stale_footprint = e.e_footprint;
              stale_dirty = dirty;
            }
      | None ->
          (* Epoch changed: the footprint is void, nothing is salvageable. *)
          drop_if_same t ~vm ~key e;
          Tel.add "digest_cache.misses" 1;
          Missing)
