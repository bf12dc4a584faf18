type finding = {
  pf_function : string;
  pf_fn_rva : int;
  pf_first_diff_rva : int;
  pf_diff_bytes : int;
}

let diff_offsets ?ranges a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let n = max la lb in
  let scan_span (off, len) acc =
    let hi = min n (off + len) in
    let rec scan i acc =
      if i >= hi then acc
      else
        let differs = i >= la || i >= lb || Bytes.get a i <> Bytes.get b i in
        scan (i + 1) (if differs then i :: acc else acc)
    in
    scan (max 0 off) acc
  in
  let spans =
    match ranges with
    | None -> [ (0, n) ]
    | Some rs -> List.sort compare rs
  in
  List.rev (List.fold_left (fun acc span -> scan_span span acc) [] spans)

let attribute ~symbols ~section_rva offsets =
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare a b) symbols
  in
  let containing rva =
    List.fold_left
      (fun acc (name, fn_rva) -> if fn_rva <= rva then Some (name, fn_rva) else acc)
      None sorted
  in
  let table = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun off ->
      let rva = section_rva + off in
      let name, fn_rva =
        match containing rva with
        | Some x -> x
        | None -> ("<headers/pad>", section_rva)
      in
      match Hashtbl.find_opt table name with
      | Some f ->
          Hashtbl.replace table name { f with pf_diff_bytes = f.pf_diff_bytes + 1 }
      | None ->
          Hashtbl.replace table name
            {
              pf_function = name;
              pf_fn_rva = fn_rva;
              pf_first_diff_rva = rva;
              pf_diff_bytes = 1;
            };
          order := name :: !order)
    offsets;
  List.rev_map (Hashtbl.find table) !order

let text arts = Artifact.find arts (Artifact.Section_data ".text")

let descent_ranges ~base1 arts1 ~base2 arts2 =
  match (text arts1, text arts2) with
  | Some t1, Some t2
    when Bytes.length t1.Artifact.data = Bytes.length t2.Artifact.data ->
      let d1 = Bytes.copy t1.Artifact.data in
      let d2 = Bytes.copy t2.Artifact.data in
      ignore (Rva.adjust_pair ~base1 ~base2 d1 d2);
      Some
        (Checker.deviant_ranges (Checker.merkle_of_bytes d1)
           (Checker.merkle_of_bytes d2))
  | _ -> None

let analyze_text_pair ?ranges ~base1 arts1 ~base2 arts2 ~symbols =
  match (text arts1, text arts2) with
  | None, _ | _, None -> Error "no .text artifact to analyze"
  | Some t1, Some t2 ->
      if Bytes.length t1.Artifact.data <> Bytes.length t2.Artifact.data then
        (* A resize (e.g. DLL injection) patches "everything after the
           growth point"; attribute the raw diffs without adjustment.
           Tree-derived ranges cannot exist here (the trees would differ
           in shape), so the survey is unrestricted. *)
        Ok
          (attribute ~symbols ~section_rva:t1.Artifact.sec_rva
             (diff_offsets t1.Artifact.data t2.Artifact.data))
      else begin
        let d1 = Bytes.copy t1.Artifact.data in
        let d2 = Bytes.copy t2.Artifact.data in
        ignore (Rva.adjust_pair ~base1 ~base2 d1 d2);
        Ok
          (attribute ~symbols ~section_rva:t1.Artifact.sec_rva
             (diff_offsets ?ranges d1 d2))
      end
