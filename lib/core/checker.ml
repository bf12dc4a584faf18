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

let merkle_of_bytes ?meter data =
  let length = Bytes.length data in
  bump meter (fun m -> Meter.add_bytes_hashed m length);
  merkle_of_leaves ?meter ~length (Merkle.leaf_digests data)

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
   are private copies nobody writes to. *)
type memo = (Artifact.kind, Bytes.t * string) Hashtbl.t

let create_memo () : memo = Hashtbl.create 8

(* [owned]: [data] is a private buffer the caller never writes again. *)
let digest_hex ?memo ~kind ~owned data =
  match memo with
  | None -> Md5.to_hex (Md5.digest_bytes data)
  | Some m -> (
      match Hashtbl.find_opt m kind with
      | Some (seen, hex) when Bytes.equal seen data -> hex
      | _ ->
          let hex = Md5.to_hex (Md5.digest_bytes data) in
          let data = if owned then data else Bytes.copy data in
          Hashtbl.replace m kind (data, hex);
          hex)

(* --- Sides and the canonical shortcut ---------------------------------- *)

type slot_tables = Artifact.t -> Rva.slots option

(* Each artifact with the table its data was canonicalized with in place,
   if one fits it. *)
type side = { sd_base : int; sd_arts : (Artifact.t * Rva.slots option) list }

let section_slots slots (a : Artifact.t) =
  match slots a with
  | Some t
    when Artifact.is_section_data a
         && Rva.slots_fit t ~section_rva:a.sec_rva ~len:(Bytes.length a.data) ->
      Some t
  | _ -> None

let own ?slots ~base arts =
  let table =
    match slots with Some lookup -> section_slots lookup | None -> fun _ -> None
  in
  let own_one (a : Artifact.t) =
    let t = table a in
    Option.iter (fun slots -> Rva.canonical ~slots ~base a.data) t;
    (a, t)
  in
  { sd_base = base; sd_arts = List.map own_one arts }

let prepare ?slots ~base arts =
  let copy (a : Artifact.t) = { a with data = Bytes.copy a.data } in
  own ?slots ~base
    (match slots with Some _ -> List.map copy arts | None -> arts)

let side_artifacts s = s.sd_arts

let find_kind arts kind =
  List.find_opt (fun ((a : Artifact.t), _) -> Artifact.equal_kind a.kind kind) arts

(* A datum's raw bytes and whether they are a private copy: a canonical
   datum is copied and given its load base back, any other is itself. *)
let raw_bytes ~base ((a : Artifact.t), table) =
  match table with
  | Some slots ->
      let d = Bytes.copy a.data in
      Rva.uncanonical ~slots ~base d;
      (d, true)
  | None -> (a.data, false)

(* [decided] counts the artifacts the canonical shortcut settled. *)
let compare_one ?meter ?memo ~decided ~base1 ~base2 ((a1 : Artifact.t), t1)
    ((a2 : Artifact.t), t2) =
  let verdict h1 h2 adjusted =
    {
      av_kind = a1.kind;
      av_match = String.equal h1 h2;
      av_digest1 = h1;
      av_digest2 = h2;
      av_adjusted = adjusted;
    }
  in
  let adjustable =
    Artifact.is_section_data a1 && Bytes.length a1.data = Bytes.length a2.data
  in
  (* Equal sides are hashed once, but both are metered: the meter prices
     the paper's per-pair scan and MD5 work, not what this process skips. *)
  let charge () =
    let n = Bytes.length a1.data + Bytes.length a2.data in
    bump meter (fun m ->
        if adjustable then Meter.add_bytes_scanned m n;
        Meter.add_bytes_hashed m n)
  in
  let hash ~owned d = digest_hex ?memo ~kind:a1.kind ~owned d in
  match (t1, t2) with
  | Some t1, Some t2
    when Rva.same_slots t1 t2
         && Rva.base_diff_offset ~base1 ~base2 <> None
         && Bytes.equal a1.data a2.data ->
      (* Rva's canonical-copy rule (one table, so equal lengths):
         Algorithm 2 would leave both sides equal to this canonical datum
         with every slot rewritten. A side is never written once made, so
         the memo may keep it. *)
      charge ();
      incr decided;
      let h = hash ~owned:true a1.data in
      verdict h h (Rva.slot_count t1)
  | _ ->
      let raw1 = raw_bytes ~base:base1 (a1, t1)
      and raw2 = raw_bytes ~base:base2 (a2, t2) in
      let (d1, o1), (d2, o2), adjusted =
        if adjustable then begin
          (* Adjust private copies: a side's artifacts take part in the
             other pairwise comparisons too. *)
          let private_copy (d, owned) = if owned then d else Bytes.copy d in
          let d1 = private_copy raw1 and d2 = private_copy raw2 in
          let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
          ((d1, true), (d2, true), stats.Rva.adjusted)
        end
        else (raw1, raw2, 0)
      in
      charge ();
      let h1 = hash ~owned:o1 d1 in
      let h2 = if Bytes.equal d1 d2 then h1 else hash ~owned:o2 d2 in
      verdict h1 h2 adjusted

let missing kind digest_side =
  {
    av_kind = kind;
    av_match = false;
    av_digest1 = (if digest_side = `First then "-" else "(absent)");
    av_digest2 = (if digest_side = `First then "(absent)" else "-");
    av_adjusted = 0;
  }

let compare_sides ?meter ?memo s1 s2 =
  let decided = ref 0 in
  let base1 = s1.sd_base and base2 = s2.sd_base in
  let arts1 = s1.sd_arts and arts2 = s2.sd_arts in
  let verdicts =
    List.map
      (fun (((a1 : Artifact.t), _) as x1) ->
        match find_kind arts2 a1.kind with
        | Some x2 -> compare_one ?meter ?memo ~decided ~base1 ~base2 x1 x2
        | None -> missing a1.kind `First)
      arts1
    @ List.filter_map
        (fun ((a2 : Artifact.t), _) ->
          match find_kind arts1 a2.kind with
          | Some _ -> None
          | None -> Some (missing a2.kind `Second))
        arts2
  in
  ( {
      verdicts;
      all_match = List.for_all (fun v -> v.av_match) verdicts;
      total_adjusted = List.fold_left (fun n v -> n + v.av_adjusted) 0 verdicts;
    },
    !decided )

let compare_pair ?meter ?memo ~base1 arts1 ~base2 arts2 =
  fst
    (compare_sides ?meter ?memo (own ~base:base1 arts1) (own ~base:base2 arts2))
