(* Tests for Algorithm 2 (RVA adjustment) and the reloc-canonical form,
   including the paper's Fig. 4 worked example and property tests over
   random relocated sections. *)

module Rva = Modchecker.Rva
module Le = Mc_util.Le
module Rng = Mc_util.Rng

let check = Alcotest.check

(* The reloc-guided adjuster prints were once stripped with: it folds a
   raw reloc list over a section at the given RVA. Kept verbatim as the
   oracle for [Rva.canonical] over a validated slot table. *)
module Reference = struct
  let mask32 = 0xFFFFFFFF

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
end

(* [Rva.canonical] on a fresh copy. *)
let canonical_copy ~slots ~base data =
  let c = Bytes.copy data in
  Rva.canonical ~slots ~base c;
  c

(* Build a section buffer of [len] bytes with address slots at [slots],
   each holding [base + rva]; non-slot bytes come from [fill]. *)
let make_section ~len ~fill ~slots ~base =
  let b = Bytes.init len (fun i -> fill i) in
  List.iter (fun (off, rva) -> Le.set_u32_int b off (base + rva)) slots;
  b

let test_base_diff_offset () =
  check Alcotest.(option int) "equal bases" None
    (Rva.base_diff_offset ~base1:0xF8CC2000 ~base2:0xF8CC2000);
  (* LE bytes of 0xF8CC2000: 00 20 CC F8; of 0xF8D02000: 00 20 D0 F8 —
     first difference at the third byte. *)
  check Alcotest.(option int) "third byte" (Some 3)
    (Rva.base_diff_offset ~base1:0xF8CC2000 ~base2:0xF8D02000);
  check Alcotest.(option int) "first byte" (Some 1)
    (Rva.base_diff_offset ~base1:0xF8CC2001 ~base2:0xF8CC2002);
  check Alcotest.(option int) "fourth byte" (Some 4)
    (Rva.base_diff_offset ~base1:0x18CC2000 ~base2:0xF8CC2000)

(* The paper's Fig. 4: bases differing at the second-highest byte; after
   adjustment both buffers hold the common RVAs and are equal. *)
let test_fig4_example () =
  let base1 = 0xF8CC2000 and base2 = 0xF8D00000 in
  let slots1 = [ (4, 0x1234); (12, 0x2F00) ] in
  let d1 = make_section ~len:24 ~fill:(fun i -> Char.chr (i land 0xFF)) ~slots:slots1 ~base:base1 in
  let d2 = make_section ~len:24 ~fill:(fun i -> Char.chr (i land 0xFF)) ~slots:slots1 ~base:base2 in
  Alcotest.(check bool) "differ before" false (Bytes.equal d1 d2);
  let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
  check Alcotest.int "two addresses adjusted" 2 stats.Rva.adjusted;
  check Alcotest.int "no stray mismatches" 0 stats.Rva.mismatched_candidates;
  Alcotest.(check bool) "equal after" true (Bytes.equal d1 d2);
  check Alcotest.int "slot holds the RVA" 0x1234 (Le.get_u32_int d1 4)

let test_equal_bases_noop () =
  let d1 = Bytes.of_string "same content" in
  let d2 = Bytes.of_string "same content" in
  let stats = Rva.adjust_pair ~base1:0xF8000000 ~base2:0xF8000000 d1 d2 in
  check Alcotest.int "nothing to adjust" 0 stats.Rva.adjusted

let test_infection_diff_preserved () =
  (* A genuine content difference does not decode to a common RVA, so it
     survives adjustment — the property detection relies on. *)
  let base1 = 0xF8AA0000 and base2 = 0xF8BB0000 in
  let d1 = make_section ~len:32 ~fill:(fun _ -> '\x90') ~slots:[ (8, 0x100) ] ~base:base1 in
  let d2 = make_section ~len:32 ~fill:(fun _ -> '\x90') ~slots:[ (8, 0x100) ] ~base:base2 in
  (* Infect d1: single opcode change à la experiment 1. *)
  Bytes.set d1 20 '\x49';
  let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
  check Alcotest.int "slot adjusted" 1 stats.Rva.adjusted;
  Alcotest.(check bool) "infection still visible" false (Bytes.equal d1 d2);
  Alcotest.(check bool) "counted as mismatch" true
    (stats.Rva.mismatched_candidates > 0)

let test_adjacent_slots () =
  let base1 = 0xF8AA0000 and base2 = 0xF8BB0000 in
  let slots = [ (4, 0x111); (8, 0x222); (12, 0x333) ] in
  let d1 = make_section ~len:24 ~fill:(fun _ -> '\x00') ~slots ~base:base1 in
  let d2 = make_section ~len:24 ~fill:(fun _ -> '\x00') ~slots ~base:base2 in
  let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
  check Alcotest.int "three back-to-back slots" 3 stats.Rva.adjusted;
  Alcotest.(check bool) "equal after" true (Bytes.equal d1 d2)

let test_slot_at_buffer_edges () =
  let base1 = 0xF8AA0000 and base2 = 0xF8BB0000 in
  let slots = [ (0, 0x10); (12, 0x20) ] in
  let d1 = make_section ~len:16 ~fill:(fun _ -> '\xCC') ~slots ~base:base1 in
  let d2 = make_section ~len:16 ~fill:(fun _ -> '\xCC') ~slots ~base:base2 in
  let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
  check Alcotest.int "both edge slots" 2 stats.Rva.adjusted;
  Alcotest.(check bool) "equal after" true (Bytes.equal d1 d2)

let test_unequal_lengths_rejected () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Rva.adjust_pair: buffers must have equal length")
    (fun () ->
      ignore
        (Rva.adjust_pair ~base1:1 ~base2:2 (Bytes.create 4) (Bytes.create 8)))

let test_adjust_with_relocs () =
  let base = 0xF8CC0000 in
  let section_rva = 0x1000 in
  let slots = [ (0, 0x1111); (20, 0x2222) ] in
  let d = make_section ~len:32 ~fill:(fun _ -> '\x90') ~slots ~base in
  let relocs = [ section_rva + 0; section_rva + 20; 0x9999999 (* outside *) ] in
  let table = Rva.slots_of_relocs ~section_rva ~len:32 relocs in
  let c = canonical_copy ~slots:table ~base d in
  let n = Reference.adjust_with_relocs ~base ~section_rva ~relocs d in
  check Alcotest.int "two slots rewritten" 2 n;
  check Alcotest.int "two slots kept" 2 (Rva.slot_count table);
  check Alcotest.int "slot 0" 0x1111 (Le.get_u32_int d 0);
  check Alcotest.int "slot 20" 0x2222 (Le.get_u32_int d 20);
  Alcotest.(check bool) "canonical equals the fold" true (Bytes.equal c d)

(* Property: for random sections with random non-overlapping slots and
   random 64K-aligned bases, Algorithm 2 reconciles the two copies exactly
   and agrees with the canonical form. *)
let prop_adjust_reconciles =
  let gen =
    QCheck.Gen.(
      let* len = int_range 32 512 in
      let* n_slots = int_range 0 (len / 16) in
      let* slot_offsets =
        (* Non-overlapping 4-byte slots on a 8-byte grid. *)
        let max_grid = (len / 8) - 1 in
        list_size (return n_slots) (int_range 0 max_grid)
      in
      let slots = List.sort_uniq compare (List.map (fun g -> g * 8) slot_offsets) in
      let* rvas = list_size (return (List.length slots)) (int_range 0 0xFFFF) in
      let* fill_seed = int in
      let* b1 = int_range 0 0x6FF in
      let* b2 = int_range 0 0x6FF in
      return (len, List.combine slots rvas, fill_seed, b1, b2))
  in
  QCheck.Test.make ~count:300 ~name:"algorithm 2 reconciles relocated pairs"
    (QCheck.make gen)
    (fun (len, slots, fill_seed, b1, b2) ->
      let base1 = 0xF8000000 + (b1 * 0x10000) in
      let base2 = 0xF8000000 + (b2 * 0x10000) in
      let rng = Rng.create (Int64.of_int fill_seed) in
      let fill_bytes = Rng.bytes rng len in
      let fill i = Bytes.get fill_bytes i in
      let d1 = make_section ~len ~fill ~slots ~base:base1 in
      let d2 = make_section ~len ~fill ~slots ~base:base2 in
      let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
      (* The canonical form of fresh copies, for comparison. *)
      let table =
        Rva.slots_of_relocs ~section_rva:0 ~len (List.map fst slots)
      in
      let e1 =
        canonical_copy ~slots:table ~base:base1
          (make_section ~len ~fill ~slots ~base:base1)
      in
      let e2 =
        canonical_copy ~slots:table ~base:base2
          (make_section ~len ~fill ~slots ~base:base2)
      in
      if base1 = base2 then Bytes.equal d1 d2
      else
        Bytes.equal d1 d2 && Bytes.equal e1 e2 && Bytes.equal d1 e1
        && stats.Rva.mismatched_candidates = 0)

(* Reference Algorithm 2 scan: a plain bounds-checked byte loop, the
   oracle for [Rva.adjust_pair]'s unchecked one. *)
let mask32 = 0xFFFFFFFF

let reference_adjust_pair ~base1 ~base2 data1 data2 =
  if Bytes.length data1 <> Bytes.length data2 then
    invalid_arg "Rva.adjust_pair: buffers must have equal length";
  match Rva.base_diff_offset ~base1 ~base2 with
  | None -> { Rva.adjusted = 0; mismatched_candidates = 0 }
  | Some offset ->
      let len = Bytes.length data1 in
      let adjusted = ref 0 in
      let mismatched = ref 0 in
      let j = ref 0 in
      while !j < len do
        if Bytes.get data1 !j <> Bytes.get data2 !j then begin
          let start = !j - offset + 1 in
          if start >= 0 && start + 4 <= len then begin
            let a1 = Le.get_u32_int data1 start in
            let a2 = Le.get_u32_int data2 start in
            let rva1 = (a1 - base1) land mask32 in
            let rva2 = (a2 - base2) land mask32 in
            if rva1 = rva2 then begin
              Le.set_u32_int data1 start rva1;
              Le.set_u32_int data2 start rva2;
              incr adjusted
            end
            else incr mismatched;
            j := start + 4
          end
          else begin
            incr mismatched;
            incr j
          end
        end
        else incr j
      done;
      { Rva.adjusted = !adjusted; mismatched_candidates = !mismatched }

(* Property: the optimised scan returns the reference's stats and leaves
   both buffers byte-identical to it — over bases equal, random, or
   differing in a single byte, lengths 0–300, relocated slots, random
   flips, and differences forced into the first and last four bytes
   (the [start < 0] and [start + 4 > len] branches). *)
let prop_adjust_matches_reference =
  let gen =
    QCheck.Gen.(
      let* base1 = int_bound 0xFFFFFFFF in
      let* which = int_bound 5 in
      let* byte = int_range 1 0xFF in
      let* other = int_bound 0xFFFFFFFF in
      let base2 =
        match which with
        | 0 -> base1
        | 1 -> other
        | k -> base1 lxor (byte lsl (8 * (k - 2)))
      in
      let* len = int_bound 300 in
      let* seed = int in
      let* slots =
        list_size (int_bound 12) (pair (int_bound 299) (int_bound 0xFFFF))
      in
      let* skew = list_size (int_bound 3) (int_bound 299) in
      let* flips =
        list_size (int_bound 6) (pair (int_bound 299) (int_range 1 0xFF))
      in
      let* edges = list_size (int_bound 3) (int_bound 7) in
      return (base1, base2, len, seed, slots, skew, flips, edges))
  in
  let print (base1, base2, len, _, _, _, _, _) =
    Printf.sprintf "base1=%#x base2=%#x len=%d" base1 base2 len
  in
  QCheck.Test.make ~count:1000 ~name:"algorithm 2 scan matches reference"
    (QCheck.make ~print gen)
    (fun (base1, base2, len, seed, slots, skew, flips, edges) ->
      let d1 = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let d2 = Bytes.copy d1 in
      List.iter
        (fun (off, rva) ->
          if off + 4 <= len then begin
            Le.set_u32_int d1 off (base1 + rva);
            (* A skewed slot decodes to a different RVA on each side. *)
            let rva2 = if List.mem off skew then rva + 1 else rva in
            Le.set_u32_int d2 off (base2 + rva2)
          end)
        slots;
      let flip off x =
        if off >= 0 && off < len then
          Bytes.set d2 off
            (Char.chr (Char.code (Bytes.get d2 off) lxor x))
      in
      List.iter (fun (off, x) -> flip off x) flips;
      (* Edge offsets 0..3 and len-1..len-4. *)
      List.iter
        (fun e -> flip (if e < 4 then e else len - (e - 3)) 0x5A)
        edges;
      let r1 = Bytes.copy d1 and r2 = Bytes.copy d2 in
      let expected = reference_adjust_pair ~base1 ~base2 r1 r2 in
      let got = Rva.adjust_pair ~base1 ~base2 d1 d2 in
      got = expected && Bytes.equal d1 r1 && Bytes.equal d2 r2)

(* Property: [may_reconcile] never rules out a byte that Algorithm 2
   does make equal. The copies differ by relocated slots (windows exactly
   the base difference apart, some overlapping each other), skewed slots
   and random flips, so windows rewritten over earlier rewrites occur. *)
let prop_may_reconcile_sound =
  let gen =
    QCheck.Gen.(
      let* base1 = int_bound 0xFFFFFFFF in
      let* diff =
        oneof
          [
            int_bound 0xFF;
            map (fun k -> k lsl 16) (int_bound 0xFF);
            int_bound 0xFFFFFFFF;
          ]
      in
      let* len = int_range 4 120 in
      let* seed = int in
      let* slots =
        list_size (int_bound 10) (pair (int_bound 119) (int_bound 0xFFFF))
      in
      let* flips =
        list_size (int_bound 6) (pair (int_bound 119) (int_range 1 0xFF))
      in
      return (base1, (base1 + diff) land 0xFFFFFFFF, len, seed, slots, flips))
  in
  let print (base1, base2, len, _, _, _) =
    Printf.sprintf "base1=%#x base2=%#x len=%d" base1 base2 len
  in
  QCheck.Test.make ~count:2000 ~name:"may_reconcile is a necessary condition"
    (QCheck.make ~print gen)
    (fun (base1, base2, len, seed, slots, flips) ->
      let d1 = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let d2 = Bytes.copy d1 in
      List.iter
        (fun (off, rva) ->
          if off + 4 <= len then begin
            Le.set_u32_int d1 off ((base1 + rva) land 0xFFFFFFFF);
            Le.set_u32_int d2 off ((base2 + rva) land 0xFFFFFFFF)
          end)
        slots;
      List.iter
        (fun (off, x) ->
          if off < len then
            Bytes.set d2 off (Char.chr (Char.code (Bytes.get d2 off) lxor x)))
        flips;
      let byte d i = Char.code (Bytes.get d i) in
      let a1 = Bytes.copy d1 and a2 = Bytes.copy d2 in
      ignore (Rva.adjust_pair ~base1 ~base2 a1 a2);
      List.for_all
        (fun p ->
          byte d1 p = byte d2 p
          || byte a1 p <> byte a2 p
          || Rva.may_reconcile ~base1 ~base2 ~len (byte d1) (byte d2) p)
        (List.init len Fun.id))

(* Property: page-aligned (not 64K) bases are also reconciled exactly —
   the X1a ablation's provable claim. *)
let prop_page_aligned =
  QCheck.Test.make ~count:200 ~name:"exact at page alignment too"
    QCheck.(triple (int_range 0 0xFFF) (int_range 0 0xFFF) (int_range 0 0xFFFF))
    (fun (p1, p2, rva) ->
      let base1 = 0xF8000000 + (p1 * 0x1000) in
      let base2 = 0xF8000000 + (p2 * 0x1000) in
      let slots = [ (8, rva) ] in
      let d1 = make_section ~len:32 ~fill:(fun _ -> '\x42') ~slots ~base:base1 in
      let d2 = make_section ~len:32 ~fill:(fun _ -> '\x42') ~slots ~base:base2 in
      ignore (Rva.adjust_pair ~base1 ~base2 d1 d2);
      Bytes.equal d1 d2)

(* --- Reloc-canonical copies -------------------------------------------- *)

(* Slot lists of every shape the validator must handle: random offsets
   (some out of range), back-to-back slots, slots at both edges,
   duplicates and overlapping starts. Offsets are section-relative;
   [section_rva] is added when they become relocs. *)
let raw_slots_gen len =
  QCheck.Gen.(
    let any = int_range (-6) (len + 2) in
    let* random = list_size (int_bound 8) any in
    let* shaped =
      list_size (int_bound 3)
        (let* off = any in
         oneofl
           [
             [ off; off + 4; off + 8 ];
             [ 0; len - 4 ];
             [ off; off ];
             [ off; off + 1 ];
             [ off; off + 3; off + 6 ];
             [ len - 3; -1 ];
           ])
    in
    return (random @ List.concat shaped))

(* Bases: equal, differing in exactly one of the four low bytes, with the
   high bit set, or unrelated. *)
let bases_gen =
  QCheck.Gen.(
    let* base1 = int_bound 0xFFFFFFFF in
    let* k = int_range 0 3 in
    let* x = int_range 1 0xFF in
    let* base2 =
      oneof
        [
          return base1;
          return (base1 lxor (x lsl (8 * k)));
          return ((base1 lor 0x80000000) lxor (x lsl (8 * k)));
          int_bound 0xFFFFFFFF;
        ]
    in
    return (base1, base2))

type slot_mutation = In_slot of int * int | Between of int | Edge of int * bool

let mutation_gen =
  QCheck.Gen.(
    let* side = bool in
    let* x = int_range 1 0xFF in
    let* m =
      oneof
        [
          map2 (fun i k -> In_slot (i, k)) small_nat (int_bound 3);
          map (fun p -> Between p) small_nat;
          map2 (fun i after -> Edge (i, after)) small_nat bool;
        ]
    in
    return (side, x, m))

(* Relocate canonical content [x] to [base] over the validated slots. *)
let relocate ~slots ~base x =
  let d = Bytes.copy x in
  List.iter
    (fun off ->
      Le.set_u32_int d off ((Le.get_u32_int d off + base) land 0xFFFFFFFF))
    (Rva.slot_offsets slots);
  d

let prop_slots_validated =
  let gen =
    QCheck.Gen.(
      let* len = int_range 0 64 in
      let* section_rva = int_bound 0x10000 in
      let* raw = raw_slots_gen len in
      return (len, section_rva, raw))
  in
  let print (len, section_rva, raw) =
    Printf.sprintf "len=%d rva=%#x slots=[%s]" len section_rva
      (String.concat ";" (List.map string_of_int raw))
  in
  QCheck.Test.make ~count:1000
    ~name:"slot tables are sorted, in range, non-overlapping, from the input"
    (QCheck.make ~print gen)
    (fun (len, section_rva, raw) ->
      let t =
        Rva.slots_of_relocs ~section_rva ~len
          (List.map (fun off -> section_rva + off) raw)
      in
      let offs = Rva.slot_offsets t in
      let rec spaced = function
        | a :: (b :: _ as rest) -> b >= a + 4 && spaced rest
        | _ -> true
      in
      Rva.slots_fit t ~section_rva ~len
      && Rva.slot_count t = List.length offs
      && spaced offs
      && List.for_all
           (fun off -> off >= 0 && off + 4 <= len && List.mem off raw)
           offs)

(* Whenever two canonical copies are byte-equal and the bases differ,
   Algorithm 2 leaves both buffers equal to that copy and counts every
   slot. Unmutated pairs at differing bases must always qualify. *)
let prop_canonical_rule =
  let gen =
    QCheck.Gen.(
      let* len = int_range 0 64 in
      let* section_rva = int_bound 0x10000 in
      let* raw = raw_slots_gen len in
      let* bases = bases_gen in
      let* seed = int in
      let* mutations = list_size (int_bound 2) mutation_gen in
      return (len, section_rva, raw, bases, seed, mutations))
  in
  let print (len, _, raw, (b1, b2), _, muts) =
    Printf.sprintf "len=%d base1=%#x base2=%#x slots=[%s] mutations=%d" len b1
      b2
      (String.concat ";" (List.map string_of_int raw))
      (List.length muts)
  in
  QCheck.Test.make ~count:3000
    ~name:"canonical-equal pairs are what adjust_pair makes of them"
    (QCheck.make ~print gen)
    (fun (len, section_rva, raw, (base1, base2), seed, mutations) ->
      let slots =
        Rva.slots_of_relocs ~section_rva ~len
          (List.map (fun off -> section_rva + off) raw)
      in
      let offs = Array.of_list (Rva.slot_offsets slots) in
      let x = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let d1 = relocate ~slots ~base:base1 x
      and d2 = relocate ~slots ~base:base2 x in
      List.iter
        (fun (side, v, m) ->
          let d = if side then d1 else d2 in
          let n = Array.length offs in
          let pos =
            match m with
            | In_slot (i, k) when n > 0 -> offs.(i mod n) + k
            | Edge (i, after) when n > 0 ->
                if after then offs.(i mod n) + 4 else offs.(i mod n) - 1
            | In_slot (i, _) | Edge (i, _) | Between i -> i
          in
          if len > 0 then begin
            let pos = ((pos mod len) + len) mod len in
            Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor v))
          end)
        mutations;
      let c1 = canonical_copy ~slots ~base:base1 d1
      and c2 = canonical_copy ~slots ~base:base2 d2 in
      let differ = Rva.base_diff_offset ~base1 ~base2 <> None in
      if differ && mutations = [] && not (Bytes.equal c1 c2) then false
      else if differ && Bytes.equal c1 c2 then begin
        let stats = Rva.adjust_pair ~base1 ~base2 d1 d2 in
        Bytes.equal d1 c1 && Bytes.equal d2 c1
        && stats.Rva.adjusted = Rva.slot_count slots
        && stats.Rva.mismatched_candidates = 0
      end
      else true)

let test_canonical_length_checked () =
  let slots = Rva.slots_of_relocs ~section_rva:0 ~len:8 [ 0 ] in
  let outside =
    Invalid_argument "Rva.canonical: window outside the slot table's section"
  in
  Alcotest.check_raises "longer than the section" outside (fun () ->
      Rva.canonical ~slots ~base:0 (Bytes.create 12));
  Alcotest.check_raises "window past the end" outside (fun () ->
      Rva.canonical ~slots ~base:0 ~off:6 (Bytes.create 4));
  Alcotest.check_raises "negative offset" outside (fun () ->
      Rva.canonical ~slots ~base:0 ~off:(-1) (Bytes.create 4))

(* A canonical datum gives its raw bytes back exactly: for any validated
   table (random, back-to-back, edge, duplicate, overlapping and
   out-of-range slots), any base (beyond 32 bits too) and any bytes. *)
let prop_uncanonical_inverse =
  let gen =
    QCheck.Gen.(
      let* len = int_range 0 64 in
      let* section_rva = int_bound 0x10000 in
      let* raw = raw_slots_gen len in
      let* base = oneof [ int_bound 0xFFFFFFFF; int ] in
      let* seed = int in
      return (len, section_rva, raw, base, seed))
  in
  let print (len, section_rva, raw, base, _) =
    Printf.sprintf "len=%d rva=%#x base=%#x slots=[%s]" len section_rva base
      (String.concat ";" (List.map string_of_int raw))
  in
  QCheck.Test.make ~count:3000 ~name:"uncanonical undoes canonical"
    (QCheck.make ~print gen)
    (fun (len, section_rva, raw, base, seed) ->
      let slots =
        Rva.slots_of_relocs ~section_rva ~len
          (List.map (fun off -> section_rva + off) raw)
      in
      let data = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let d = Bytes.copy data in
      Rva.canonical ~slots ~base d;
      Rva.uncanonical ~slots ~base d;
      Bytes.equal d data)

(* Against the reference fold, for any reloc list without overlapping
   slots (unsorted, and with RVAs outside the section): the whole-section
   rewrite equals the fold, and so does a window's, both over the window
   (the fold at the window's RVA) and, on the bytes at least
   [reloc_margin] from an inner edge, over the whole section. *)
let prop_canonical_matches_reference =
  let gen =
    QCheck.Gen.(
      let* len = int_bound 256 in
      let* section_rva = int_bound 0x10000 in
      let* raw = list_size (int_bound 40) (int_range (-8) (len + 4)) in
      let* base = int_bound 0xFFFFFFFF in
      let* seed = int in
      let* lo = int_bound len in
      let* hi = int_range lo len in
      return (len, section_rva, raw, base, seed, (lo, hi)))
  in
  let print (len, section_rva, raw, base, _, (lo, hi)) =
    Printf.sprintf "len=%d rva=%#x base=%#x window=[%d,%d) relocs=[%s]" len
      section_rva base lo hi
      (String.concat ";" (List.map string_of_int raw))
  in
  QCheck.Test.make ~count:2000 ~name:"canonical equals the reference fold"
    (QCheck.make ~print gen)
    (fun (len, section_rva, raw, base, seed, (lo, hi)) ->
      (* Drop every offset whose slot overlaps one already kept. *)
      let offs =
        List.fold_left
          (fun kept o ->
            if List.exists (fun k -> abs (k - o) < 4) kept then kept
            else o :: kept)
          [] raw
      in
      let relocs = List.map (fun o -> section_rva + o) offs in
      let slots = Rva.slots_of_relocs ~section_rva ~len relocs in
      let data = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let fold = Bytes.copy data in
      ignore (Reference.adjust_with_relocs ~base ~section_rva ~relocs fold);
      let window = Bytes.sub data lo (hi - lo) in
      let window_fold = Bytes.copy window in
      ignore
        (Reference.adjust_with_relocs ~base ~section_rva:(section_rva + lo)
           ~relocs window_fold);
      Rva.canonical ~slots ~base ~off:lo window;
      let inner_lo = if lo = 0 then 0 else lo + Rva.reloc_margin in
      let inner_hi = if hi = len then len else hi - Rva.reloc_margin in
      let rec interior q =
        q >= inner_hi
        || (Bytes.get window (q - lo) = Bytes.get fold q && interior (q + 1))
      in
      Bytes.equal (canonical_copy ~slots ~base data) fold
      && Bytes.equal window window_fold
      && interior inner_lo)

(* Every hashable section of every catalog module at patch levels 1-3,
   loaded at several bases: the golden slot table fits the section, keeps
   every reloc that falls in it, and strips it exactly as the reference
   fold over the golden reloc list does — and to the same bytes at every
   base. *)
let test_catalog_sweep () =
  let module Read = Mc_pe.Read in
  let bases = [ 0x80010000; 0xF8CC0000; 0xA3451000; 0x00400000 ] in
  let sections = ref 0 in
  List.iter
    (fun version ->
      List.iter
        (fun name ->
          let file = (Mc_pe.Catalog.image ~version name).Mc_pe.Catalog.file in
          let relocs =
            match Read.parse ~layout:Read.File file with
            | Ok image -> Read.base_relocations ~layout:Read.File file image
            | Error e -> Alcotest.fail (Read.error_to_string e)
          in
          let tables = Modchecker.Orchestrator.slot_tables ~version name in
          let strip base =
            let mem =
              match Mc_winkernel.Loader.simulate_load file ~base with
              | Ok mem -> mem
              | Error e -> Alcotest.fail (Mc_winkernel.Loader.error_to_string e)
            in
            match Modchecker.Parser.artifacts mem with
            | Error e -> Alcotest.fail e
            | Ok arts ->
                List.filter_map
                  (fun (a : Modchecker.Artifact.t) ->
                    if not (Modchecker.Artifact.is_section_data a) then None
                    else
                      let what =
                        Printf.sprintf "%s v%d %s at %#x" name version
                          (Modchecker.Artifact.kind_name a.kind) base
                      in
                      let len = Bytes.length a.data in
                      let fold = Bytes.copy a.data in
                      let n =
                        Reference.adjust_with_relocs ~base
                          ~section_rva:a.sec_rva ~relocs fold
                      in
                      match
                        Modchecker.Checker.(
                          side_artifacts (own ~slots:tables ~base [ a ]))
                      with
                      | [ ({ Modchecker.Artifact.data = c; _ }, Some t) ] ->
                          check Alcotest.int (what ^ ": no reloc dropped") n
                            (Rva.slot_count t);
                          Alcotest.(check bool) (what ^ ": fits") true
                            (Rva.slots_fit t ~section_rva:a.sec_rva ~len);
                          Alcotest.(check bool) (what ^ ": equals the fold") true
                            (Bytes.equal c fold);
                          Some c
                      | _ -> Alcotest.failf "%s: no table fits" what)
                  arts
          in
          let first = strip (List.hd bases) in
          sections := !sections + List.length first;
          List.iter
            (fun base ->
              Alcotest.(check bool)
                (Printf.sprintf "%s v%d: same bytes at %#x" name version base)
                true
                (List.equal Bytes.equal first (strip base)))
            (List.tl bases))
        Mc_pe.Catalog.standard_modules)
    [ 1; 2; 3 ];
  Alcotest.(check bool) "sections swept" true (!sections > 0)

let () =
  Alcotest.run "rva"
    [
      ( "algorithm2",
        [
          Alcotest.test_case "base diff offset" `Quick test_base_diff_offset;
          Alcotest.test_case "fig 4 example" `Quick test_fig4_example;
          Alcotest.test_case "equal bases" `Quick test_equal_bases_noop;
          Alcotest.test_case "infection preserved" `Quick
            test_infection_diff_preserved;
          Alcotest.test_case "adjacent slots" `Quick test_adjacent_slots;
          Alcotest.test_case "buffer edges" `Quick test_slot_at_buffer_edges;
          Alcotest.test_case "length mismatch" `Quick
            test_unequal_lengths_rejected;
        ] );
      ( "reloc-guided",
        [ Alcotest.test_case "adjust_with_relocs" `Quick test_adjust_with_relocs ]
      );
      ( "canonical",
        Alcotest.test_case "length checked" `Quick test_canonical_length_checked
        :: Alcotest.test_case "catalog sweep" `Quick test_catalog_sweep
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_slots_validated;
               prop_canonical_rule;
               prop_canonical_matches_reference;
               prop_uncanonical_inverse;
             ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_adjust_reconciles;
            prop_page_aligned;
            prop_adjust_matches_reference;
            prop_may_reconcile_sound;
          ] );
    ]
