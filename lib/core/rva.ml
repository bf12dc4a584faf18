module Le = Mc_util.Le

type stats = { adjusted : int; mismatched_candidates : int }

let base_byte base i = (base lsr (8 * i)) land 0xFF

(* Algorithm 2, lines 1–9: offset <- 1-based index of the first byte at
   which the two (little-endian) base addresses differ. *)
let base_diff_offset ~base1 ~base2 =
  let rec scan i =
    if i > 4 then None
    else if base_byte base1 (i - 1) <> base_byte base2 (i - 1) then Some i
    else scan (i + 1)
  in
  scan 1

let mask32 = 0xFFFFFFFF

let adjust_pair ~base1 ~base2 data1 data2 =
  if Bytes.length data1 <> Bytes.length data2 then
    invalid_arg "Rva.adjust_pair: buffers must have equal length";
  match base_diff_offset ~base1 ~base2 with
  | None -> { adjusted = 0; mismatched_candidates = 0 }
  | Some offset ->
      let len = Bytes.length data1 in
      let adjusted = ref 0 in
      let mismatched = ref 0 in
      let j = ref 0 in
      (* Both buffers are [len] bytes (checked on entry) and the loop guard
         keeps [!j < len], so the byte loads need no bounds check. Slot
         reads and writes stay checked. *)
      while !j < len do
        if Bytes.unsafe_get data1 !j <> Bytes.unsafe_get data2 !j then begin
          (* Lines 13–14: the absolute address starts [offset - 1] bytes
             before the detected difference. *)
          let start = !j - offset + 1 in
          if start >= 0 && start + 4 <= len then begin
            let a1 = Int32.to_int (Bytes.get_int32_le data1 start) in
            let a2 = Int32.to_int (Bytes.get_int32_le data2 start) in
            let rva1 = (a1 - base1) land mask32 in
            let rva2 = (a2 - base2) land mask32 in
            if rva1 = rva2 then begin
              (* Lines 17–19: replace both absolute addresses with the
                 common RVA. *)
              Bytes.set_int32_le data1 start (Int32.of_int rva1);
              Bytes.set_int32_le data2 start (Int32.of_int rva2);
              incr adjusted
            end
            else incr mismatched;
            (* Line 22 (as printed, "j <- j - offset + 1 - 4", is garbled;
               the evident intent is to resume scanning just past the
               4-byte candidate address). *)
            j := start + 4
          end
          else begin
            incr mismatched;
            incr j
          end
        end
        else incr j
      done;
      { adjusted = !adjusted; mismatched_candidates = !mismatched }

type canonical_stats = {
  slots_detected : int;
  slots_unanimous : int;
  slots_majority : int;
  deviants : (int * int list) list;
}

let canonicalize ~bases buffers =
  let n = Array.length buffers in
  if n < 2 then invalid_arg "Rva.canonicalize: need at least two buffers";
  if Array.length bases <> n then
    invalid_arg "Rva.canonicalize: bases/buffers length mismatch";
  let len = Bytes.length buffers.(0) in
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Rva.canonicalize: buffers must have equal length")
    buffers;
  (* Pairwise offsets against buffer 0 locate slot starts, exactly as in
     the 2-way algorithm; buffers whose base equals base 0 cannot reveal
     slots against it, so fall back to any differing-base partner. *)
  let offset_vs i =
    base_diff_offset ~base1:bases.(0) ~base2:bases.(i)
  in
  let detected = ref 0 in
  let unanimous = ref 0 in
  let majority_slots = ref 0 in
  let deviants = ref [] in
  let j = ref 0 in
  while !j < len do
    (* Find a buffer differing from buffer 0 at j with a usable offset. *)
    let rec witness i =
      if i >= n then None
      else if Bytes.get buffers.(i) !j <> Bytes.get buffers.(0) !j then
        match offset_vs i with
        | Some off -> Some off
        | None -> witness (i + 1)
      else witness (i + 1)
    in
    match witness 1 with
    | None -> incr j
    | Some offset ->
        let start = !j - offset + 1 in
        if start < 0 || start + 4 > len then incr j
        else begin
          incr detected;
          let values = Array.map (fun b -> Le.get_u32_int b start) buffers in
          let rvas =
            Array.mapi (fun i v -> (v - bases.(i)) land mask32) values
          in
          (* Majority RVA, voting by distinct load base: copies that
             share a base agree on the implied RVA of any byte range
             trivially, so they carry one vote together — counting them
             separately manufactures a "relocation slot" out of plain
             content divergence whenever base allocation collides. *)
          let support = Hashtbl.create 4 in
          Array.iteri
            (fun i _ ->
              let r = rvas.(i) in
              let bs =
                Option.value ~default:[] (Hashtbl.find_opt support r)
              in
              if not (List.mem bases.(i) bs) then
                Hashtbl.replace support r (bases.(i) :: bs))
            buffers;
          let total_bases =
            Array.to_list bases |> List.sort_uniq compare |> List.length
          in
          let best_rva, best_support =
            Hashtbl.fold
              (fun r bs ((_, bc) as acc) ->
                let c = List.length bs in
                if c > bc then (r, c) else acc)
              support (0, 0)
          in
          (* A genuine slot holds [base_i + rva], so two distinct-base
             copies with the same raw word prove the position is plain
             content for those copies. That only disqualifies the slot
             when such a pair reaches into the winning RVA group (a
             misaligned word inside an infected copy's divergence can
             coincidentally rva-match one clean copy and outvote the
             identical remaining clean ones). A pair entirely outside
             the winner — e.g. two copies of one coordinated infection
             whose shifted code overlays a real slot — must not veto
             the clean majority's adjustment, or the clean copies are
             left holding per-base absolute addresses and fragment. *)
          let content_veto = ref false in
          for a = 0 to n - 1 do
            for b = a + 1 to n - 1 do
              if
                bases.(a) <> bases.(b)
                && values.(a) = values.(b)
                && (rvas.(a) = best_rva || rvas.(b) = best_rva)
              then content_veto := true
            done
          done;
          if Array.for_all (Int.equal best_rva) rvas then begin
            incr unanimous;
            Array.iter (fun b -> Le.set_u32_int b start best_rva) buffers;
            j := start + 4
          end
          else if (not !content_veto) && 2 * best_support > total_bases
          then begin
            incr majority_slots;
            let off_deviants = ref [] in
            Array.iteri
              (fun i b ->
                if rvas.(i) = best_rva then Le.set_u32_int b start best_rva
                else off_deviants := i :: !off_deviants)
              buffers;
            deviants := (start, List.rev !off_deviants) :: !deviants;
            j := start + 4
          end
          else
            (* No majority RVA: this difference is content divergence (an
               infection), not a relocation slot. Advance one byte so the
               scan stays synchronized with genuine slots further on. *)
            incr j
        end
  done;
  {
    slots_detected = !detected;
    slots_unanimous = !unanimous;
    slots_majority = !majority_slots;
    deviants = List.rev !deviants;
  }

let adjust_with_relocs ~base ~section_rva ~relocs data =
  let len = Bytes.length data in
  List.fold_left
    (fun count rva ->
      let off = rva - section_rva in
      if off >= 0 && off + 4 <= len then begin
        let v = Le.get_u32_int data off in
        Le.set_u32_int data off ((v - base) land mask32);
        count + 1
      end
      else count)
    0 relocs

(* A reloc slot is 4 bytes, so a slot overlapping a window either lies
   fully inside it or reaches at most 3 bytes past an edge. *)
let reloc_margin = 3

let adjust_window ~base ~section_rva ~window_off ~relocs data =
  adjust_with_relocs ~base ~section_rva:(section_rva + window_off) ~relocs data
