(* Tests for Algorithm 2 (RVA adjustment) and the reloc-guided exact
   adjuster, including the paper's Fig. 4 worked example and property
   tests over random relocated sections. *)

module Rva = Modchecker.Rva
module Le = Mc_util.Le
module Rng = Mc_util.Rng

let check = Alcotest.check

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
  let n = Rva.adjust_with_relocs ~base ~section_rva ~relocs d in
  check Alcotest.int "two slots rewritten" 2 n;
  check Alcotest.int "slot 0" 0x1111 (Le.get_u32_int d 0);
  check Alcotest.int "slot 20" 0x2222 (Le.get_u32_int d 20)

(* Property: for random sections with random non-overlapping slots and
   random 64K-aligned bases, Algorithm 2 reconciles the two copies exactly
   and agrees with the reloc-guided adjuster. *)
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
      (* Exact adjuster on fresh copies for comparison. *)
      let e1 = make_section ~len ~fill ~slots ~base:base1 in
      let e2 = make_section ~len ~fill ~slots ~base:base2 in
      let relocs = List.map (fun (off, _) -> off) slots in
      ignore (Rva.adjust_with_relocs ~base:base1 ~section_rva:0 ~relocs e1);
      ignore (Rva.adjust_with_relocs ~base:base2 ~section_rva:0 ~relocs e2);
      if base1 = base2 then Bytes.equal d1 d2
      else
        Bytes.equal d1 d2 && Bytes.equal e1 e2
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
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_adjust_reconciles;
            prop_page_aligned;
            prop_adjust_matches_reference;
          ] );
    ]
