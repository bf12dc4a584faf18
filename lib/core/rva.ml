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

(* --- Reloc-canonical copies --------------------------------------------- *)

type slots = { sl_rva : int; sl_len : int; sl_offsets : int array }

(* Sorted, in range, and greedy on overlap: a slot starting inside the
   last one kept (a duplicate included) is dropped, so the kept set is
   one the proof in the interface covers whatever list came in. *)
let slots_of_relocs ~section_rva ~len relocs =
  let len = max 0 len in
  let offs =
    Array.of_list
      (List.filter_map
         (fun rva ->
           let off = rva - section_rva in
           if off >= 0 && off + 4 <= len then Some off else None)
         relocs)
  in
  (* Loader tables come sorted page by page: sort only what is not. *)
  let sorted = ref true in
  for i = 1 to Array.length offs - 1 do
    if offs.(i) < offs.(i - 1) then sorted := false
  done;
  if not !sorted then Array.stable_sort Int.compare offs;
  let kept = ref 0 and last = ref (-4) in
  Array.iter
    (fun off ->
      if off >= !last + 4 then begin
        offs.(!kept) <- off;
        incr kept;
        last := off
      end)
    offs;
  { sl_rva = section_rva; sl_len = len; sl_offsets = Array.sub offs 0 !kept }

let slot_offsets t = Array.to_list t.sl_offsets

let slot_count t = Array.length t.sl_offsets

let slots_fit t ~section_rva ~len = t.sl_rva = section_rva && t.sl_len = len

let same_slots a b =
  a == b || (a.sl_len = b.sl_len && a.sl_offsets = b.sl_offsets)

(* Index of the first slot at or after section offset [lo]. *)
let first_slot t lo =
  let rec go a b =
    if a >= b then a
    else
      let m = (a + b) / 2 in
      if t.sl_offsets.(m) < lo then go (m + 1) b else go a m
  in
  go 0 (Array.length t.sl_offsets)

(* Rewrite every slot wholly inside the window by [f] on its u32. *)
let rewrite_slots ~what f ~slots ~off data =
  let len = Bytes.length data in
  if off < 0 || off + len > slots.sl_len then
    invalid_arg (what ^ ": window outside the slot table's section");
  let offs = slots.sl_offsets in
  let i = ref (first_slot slots off) in
  while !i < Array.length offs && offs.(!i) + 4 <= off + len do
    let p = offs.(!i) - off in
    Le.set_u32_int data p (f (Le.get_u32_int data p) land mask32);
    incr i
  done

let canonical ~slots ~base ?(off = 0) data =
  rewrite_slots ~what:"Rva.canonical" (fun u -> u - base) ~slots ~off data

let uncanonical ~slots ~base data =
  rewrite_slots ~what:"Rva.uncanonical" (fun u -> u + base) ~slots ~off:0 data

let slot_covering t q =
  let i = first_slot t (q - 3) in
  if i < Array.length t.sl_offsets && t.sl_offsets.(i) <= q then
    Some t.sl_offsets.(i)
  else None

(* The first window that rewrites [p] reads [p] unmodified; each other
   byte of it is either unmodified or already rewritten to one value on
   both sides, and a byte equal on both sides drops out of [a1 - a2]. So
   try every window start in [p - 3, p] and every set of the other
   bytes to drop. *)
let may_reconcile ~base1 ~base2 ~len byte1 byte2 p =
  let target = (base1 - base2) land mask32 in
  let window s =
    let kp = p - s in
    let rec sums k acc =
      if k = 4 then acc land mask32 = target
      else
        let d = byte1 (s + k) - byte2 (s + k) in
        sums (k + 1) (acc + (d lsl (8 * k)))
        || (k <> kp && d <> 0 && sums (k + 1) acc)
    in
    sums 0 0
  in
  let rec from s =
    s <= p && ((s >= 0 && s + 4 <= len && window s) || from (s + 1))
  in
  base_diff_offset ~base1 ~base2 <> None && from (p - 3)

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

(* A reloc slot is 4 bytes, so a slot overlapping a window either lies
   fully inside it or reaches at most 3 bytes past an edge. *)
let reloc_margin = 3
