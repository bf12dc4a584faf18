module Md5 = Mc_md5.Md5
module Merkle = Mc_md5.Merkle
module Meter = Mc_hypervisor.Meter
module Tel = Mc_telemetry.Registry

type artifact_verdict = {
  av_kind : Artifact.kind;
  av_match : bool;
  av_digest1 : string;
  av_digest2 : string;
  av_adjusted : int;
}

type pair_result = {
  verdicts : artifact_verdict list;
  all_match : bool;
  total_adjusted : int;
}

let bump meter f = match meter with Some m -> f m | None -> ()

let hash_artifact ?meter (a : Artifact.t) =
  bump meter (fun m -> Meter.add_bytes_hashed m (Bytes.length a.data));
  Md5.to_hex (Md5.digest_bytes a.data)

(* --- Merkle fingerprints ---------------------------------------------- *)

let merkle_of_leaves ?meter ~length leaves =
  let t, interior = Merkle.of_leaves ~length leaves in
  bump meter (fun m -> Meter.add_merkle_nodes m interior);
  t

(* Below this, the fan-out overhead beats the hashing it saves. *)
let parallel_leaf_threshold = 16 * Merkle.default_page_size

let merkle_of_bytes ?meter ?pool data =
  let length = Bytes.length data in
  bump meter (fun m -> Meter.add_bytes_hashed m length);
  let leaves =
    match pool with
    | Some p when length >= parallel_leaf_threshold ->
        let bounds =
          Array.to_list (Merkle.leaf_bounds ~page:Merkle.default_page_size length)
        in
        Array.of_list
          (Mc_parallel.Pool.parallel_map p
             (fun (off, len) -> Md5.digest_sub data off len)
             bounds)
    | _ -> Merkle.leaf_digests data
  in
  merkle_of_leaves ?meter ~length leaves

let merkle_rehash ?meter t data ~dirty =
  let dirty = List.sort_uniq compare dirty in
  bump meter (fun m ->
      let bytes =
        List.fold_left
          (fun n i ->
            n + min (Merkle.page_size t) (Merkle.length t - (i * Merkle.page_size t)))
          0 dirty
      in
      Meter.add_bytes_hashed m bytes);
  let t', interior = Merkle.rehash t data ~dirty in
  bump meter (fun m -> Meter.add_merkle_nodes m interior);
  t'

let deviant_ranges ?meter t1 t2 =
  let leaves, compared = Merkle.diverging_leaves t1 t2 in
  bump meter (fun m -> Meter.add_merkle_nodes m compared);
  Tel.add "merkle.descents" 1;
  let bounds = Merkle.leaf_bounds ~page:(Merkle.page_size t1) (Merkle.length t1) in
  List.map (fun i -> bounds.(i)) leaves

(* --- Per-check digest memo --------------------------------------------- *)

(* The last buffer hashed for each artifact kind, with its hex digest. A
   digest is reused only for a [Bytes.equal] buffer, so a hit is exact by
   construction, and one buffer per kind bounds the memory. Stored buffers
   are private copies nobody writes to, so lookups compare them outside
   the lock. *)
type memo = {
  lock : Mutex.t;
  last : (Artifact.kind, Bytes.t * string) Hashtbl.t;
}

let create_memo () = { lock = Mutex.create (); last = Hashtbl.create 8 }

(* [owned]: [data] is a private buffer the caller never writes again. *)
let digest_hex ?memo ~kind ~owned data =
  match memo with
  | None -> Md5.to_hex (Md5.digest_bytes data)
  | Some m -> (
      match Mutex.protect m.lock (fun () -> Hashtbl.find_opt m.last kind) with
      | Some (seen, hex) when Bytes.equal seen data -> hex
      | _ ->
          (* Hashed outside the lock: two domains that race hash twice. *)
          let hex = Md5.to_hex (Md5.digest_bytes data) in
          let data = if owned then data else Bytes.copy data in
          Mutex.protect m.lock (fun () ->
              Hashtbl.replace m.last kind (data, hex));
          hex)

let compare_one ?meter ?memo ~base1 ~base2 (a1 : Artifact.t) (a2 : Artifact.t) =
  let d1, d2, owned, adjusted =
    if
      Artifact.is_section_data a1
      && Bytes.length a1.data = Bytes.length a2.data
    then begin
      (* Work on copies: adjustment must not corrupt the cached artifacts
         used by the other pairwise comparisons. *)
      let d1 = Bytes.copy a1.data and d2 = Bytes.copy a2.data in
      bump meter (fun m ->
          Meter.add_bytes_scanned m (Bytes.length d1 + Bytes.length d2));
      let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
      (d1, d2, true, stats.Rva.adjusted)
    end
    else (a1.data, a2.data, false, 0)
  in
  (* Equal sides are hashed once, but both are metered: the meter prices
     the paper's per-pair MD5 work, not the hashing this process skips. *)
  bump meter (fun m ->
      Meter.add_bytes_hashed m (Bytes.length d1 + Bytes.length d2));
  let hash = digest_hex ?memo ~kind:a1.kind ~owned in
  let h1 = hash d1 in
  let h2 = if Bytes.equal d1 d2 then h1 else hash d2 in
  {
    av_kind = a1.kind;
    av_match = String.equal h1 h2;
    av_digest1 = h1;
    av_digest2 = h2;
    av_adjusted = adjusted;
  }

let missing kind digest_side =
  {
    av_kind = kind;
    av_match = false;
    av_digest1 = (if digest_side = `First then "-" else "(absent)");
    av_digest2 = (if digest_side = `First then "(absent)" else "-");
    av_adjusted = 0;
  }

let compare_pair ?meter ?memo ~base1 arts1 ~base2 arts2 =
  let verdicts =
    List.map
      (fun (a1 : Artifact.t) ->
        match Artifact.find arts2 a1.kind with
        | Some a2 -> compare_one ?meter ?memo ~base1 ~base2 a1 a2
        | None -> missing a1.kind `First)
      arts1
    @ List.filter_map
        (fun (a2 : Artifact.t) ->
          match Artifact.find arts1 a2.kind with
          | Some _ -> None
          | None -> Some (missing a2.kind `Second))
        arts2
  in
  {
    verdicts;
    all_match = List.for_all (fun v -> v.av_match) verdicts;
    total_adjusted = List.fold_left (fun n v -> n + v.av_adjusted) 0 verdicts;
  }
