(* Tests for the Integrity-Checker: artifact hashing and pairwise module
   comparison with RVA adjustment. *)

module Checker = Modchecker.Checker
module Parser = Modchecker.Parser
module Artifact = Modchecker.Artifact
module Catalog = Mc_pe.Catalog
module Loader = Mc_winkernel.Loader
module Meter = Mc_hypervisor.Meter
module Md5 = Mc_md5.Md5

let check = Alcotest.check

let artifacts_at name base =
  match Loader.simulate_load (Catalog.image name).Catalog.file ~base with
  | Error e -> Alcotest.fail (Loader.error_to_string e)
  | Ok mem -> (
      match Parser.artifacts mem with
      | Ok a -> a
      | Error e -> Alcotest.fail e)

let test_hash_artifact () =
  let a =
    { Artifact.kind = Artifact.Dos_header; data = Bytes.of_string "abc"; sec_rva = 0 }
  in
  check Alcotest.string "matches plain md5"
    (Md5.to_hex (Md5.digest_string "abc"))
    (Checker.hash_artifact a)

let test_clean_pair_matches () =
  let base1 = 0xF8110000 and base2 = 0xF8770000 in
  let a1 = artifacts_at "dummy.sys" base1 in
  let a2 = artifacts_at "dummy.sys" base2 in
  let r = Checker.compare_pair ~base1 a1 ~base2 a2 in
  Alcotest.(check bool) "all match" true r.Checker.all_match;
  Alcotest.(check bool) "addresses were adjusted" true (r.Checker.total_adjusted > 0);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Artifact.kind_name v.Checker.av_kind ^ " digests equal")
        true
        (String.equal v.Checker.av_digest1 v.Checker.av_digest2))
    r.Checker.verdicts

let test_same_base_needs_no_adjustment () =
  let base = 0xF8120000 in
  let a1 = artifacts_at "dummy.sys" base in
  let a2 = artifacts_at "dummy.sys" base in
  let r = Checker.compare_pair ~base1:base a1 ~base2:base a2 in
  Alcotest.(check bool) "all match" true r.Checker.all_match;
  check Alcotest.int "no adjustments" 0 r.Checker.total_adjusted

let test_tampered_section_detected () =
  let base1 = 0xF8110000 and base2 = 0xF8770000 in
  let a1 = artifacts_at "dummy.sys" base1 in
  let a2 = artifacts_at "dummy.sys" base2 in
  (* Patch one code byte on side 1. *)
  let text = Option.get (Artifact.find a1 (Artifact.Section_data ".text")) in
  Bytes.set text.Artifact.data 2 '\xCC';
  let r = Checker.compare_pair ~base1 a1 ~base2 a2 in
  Alcotest.(check bool) "mismatch detected" false r.Checker.all_match;
  let bad =
    List.filter (fun v -> not v.Checker.av_match) r.Checker.verdicts
  in
  check Alcotest.int "only .text flagged" 1 (List.length bad);
  (match bad with
  | [ v ] ->
      Alcotest.(check bool) "flagged kind is .text" true
        (Artifact.equal_kind v.Checker.av_kind (Artifact.Section_data ".text"))
  | _ -> Alcotest.fail "expected exactly one mismatch")

let test_adjustment_does_not_mutate_inputs () =
  let base1 = 0xF8110000 and base2 = 0xF8770000 in
  let a1 = artifacts_at "dummy.sys" base1 in
  let a2 = artifacts_at "dummy.sys" base2 in
  let text = Option.get (Artifact.find a1 (Artifact.Section_data ".text")) in
  let before = Bytes.copy text.Artifact.data in
  ignore (Checker.compare_pair ~base1 a1 ~base2 a2);
  Alcotest.(check bool) "inputs untouched" true
    (Bytes.equal before text.Artifact.data)

let test_missing_artifact_mismatch () =
  let base = 0xF8110000 in
  let a1 = artifacts_at "dummy.sys" base in
  let a2 =
    List.filter
      (fun (a : Artifact.t) ->
        not (Artifact.equal_kind a.Artifact.kind (Artifact.Section_data ".text")))
      (artifacts_at "dummy.sys" base)
  in
  let r = Checker.compare_pair ~base1:base a1 ~base2:base a2 in
  Alcotest.(check bool) "missing fails" false r.Checker.all_match;
  let v =
    List.find
      (fun v -> Artifact.equal_kind v.Checker.av_kind (Artifact.Section_data ".text"))
      r.Checker.verdicts
  in
  check Alcotest.string "absent marker" "(absent)" v.Checker.av_digest2;
  (* And the symmetric direction. *)
  let r2 = Checker.compare_pair ~base1:base a2 ~base2:base a1 in
  Alcotest.(check bool) "extra on other side fails" false r2.Checker.all_match

let test_different_lengths_mismatch () =
  let base = 0xF8110000 in
  let a1 = artifacts_at "dummy.sys" base in
  let a2 =
    List.map
      (fun (a : Artifact.t) ->
        if Artifact.equal_kind a.Artifact.kind (Artifact.Section_data ".text")
        then { a with Artifact.data = Bytes.cat a.Artifact.data (Bytes.make 16 '\000') }
        else a)
      (artifacts_at "dummy.sys" base)
  in
  let r = Checker.compare_pair ~base1:base a1 ~base2:base a2 in
  Alcotest.(check bool) "length change detected" false r.Checker.all_match

let test_metering () =
  let meter = Meter.create () in
  Meter.set_phase meter Meter.Checker;
  let base1 = 0xF8110000 and base2 = 0xF8770000 in
  let a1 = artifacts_at "dummy.sys" base1 in
  let a2 = artifacts_at "dummy.sys" base2 in
  ignore (Checker.compare_pair ~meter ~base1 a1 ~base2 a2);
  let c = Meter.get meter Meter.Checker in
  Alcotest.(check bool) "hashed bytes counted" true (c.Meter.bytes_hashed > 0);
  Alcotest.(check bool) "scanned bytes counted" true (c.Meter.bytes_scanned > 0)

let test_digests_are_hex () =
  let base = 0xF8110000 in
  let a = artifacts_at "hello.sys" base in
  let r = Checker.compare_pair ~base1:base a ~base2:base a in
  List.iter
    (fun v ->
      check Alcotest.int "32 hex chars" 32 (String.length v.Checker.av_digest1))
    r.Checker.verdicts

(* Property: a memo reused across a whole sequence of pairs changes
   nothing observable — verdicts, hex digests, adjustment counts and meter
   counts all equal those of memo-less comparison. The sequence mixes
   catalog modules loaded at random bases (a small base pool, so buffers
   recur and the memo hits), same-base pairs, byte flips, resized
   sections and missing kinds. *)
let loaded = Hashtbl.create 16

let artifacts_cached name base =
  match Hashtbl.find_opt loaded (name, base) with
  | Some a -> a
  | None ->
      let a = artifacts_at name base in
      Hashtbl.add loaded (name, base) a;
      a

type tamper = Flip of int * int * int | Resize of int * int | Drop of int

(* Copies before touching anything: cached artifacts stay pristine. *)
let tamper arts = function
  | Flip (i, off, x) ->
      List.mapi
        (fun j (a : Artifact.t) ->
          if j <> i mod List.length arts || Bytes.length a.data = 0 then a
          else
            let data = Bytes.copy a.data in
            let off = off mod Bytes.length data in
            Bytes.set data off
              (Char.chr (Char.code (Bytes.get data off) lxor x));
            { a with data })
        arts
  | Resize (i, delta) ->
      List.mapi
        (fun j (a : Artifact.t) ->
          if j <> i mod List.length arts || not (Artifact.is_section_data a)
          then a
          else
            let len = max 0 (Bytes.length a.data + delta) in
            let data = Bytes.make len '\x90' in
            Bytes.blit a.data 0 data 0 (min len (Bytes.length a.data));
            { a with data })
        arts
  | Drop i -> List.filteri (fun j _ -> j <> i mod List.length arts) arts

let prop_memo_parity =
  let tamper_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map3 (fun i o x -> Flip (i, o, x)) small_nat nat (int_range 1 255) );
          (1, map2 (fun i d -> Resize (i, d)) small_nat (int_range (-16) 16));
          (1, map (fun i -> Drop i) small_nat);
        ])
  in
  let pair_gen =
    QCheck.Gen.(
      let* name = oneofl [ "dummy.sys"; "hello.sys"; "disk.sys"; "hal.dll" ] in
      let* b1 = int_bound 3 in
      let* b2 = int_bound 3 in
      let* t1 = list_size (int_bound 1) tamper_gen in
      let* t2 = list_size (int_bound 2) tamper_gen in
      return (name, b1, b2, t1, t2))
  in
  let base k = 0xF8000000 + (k * 0x130000) in
  let side name k ts =
    (base k, List.fold_left tamper (artifacts_cached name (base k)) ts)
  in
  QCheck.Test.make ~count:60 ~name:"memo parity over a pair sequence"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) pair_gen))
    (fun seq ->
      let pairs =
        List.map (fun (n, b1, b2, t1, t2) -> (side n b1 t1, side n b2 t2)) seq
      in
      let run memo =
        let meter = Meter.create () in
        Meter.set_phase meter Meter.Checker;
        let rs =
          List.map
            (fun ((base1, a1), (base2, a2)) ->
              Checker.compare_pair ~meter ?memo ~base1 a1 ~base2 a2)
            pairs
        in
        (rs, Meter.pairs (Meter.get meter Meter.Checker))
      in
      run (Some (Checker.create_memo ())) = run None)

(* The memo must not trust a caller's buffer to stay unchanged: an
   artifact rewritten in place between two comparisons gets a fresh
   digest. *)
let test_memo_caller_mutation () =
  let a () =
    [ { Artifact.kind = Artifact.Dos_header; data = Bytes.of_string "MZ..";
        sec_rva = 0 } ]
  in
  let a1 = a () and a2 = a () in
  let memo = Checker.create_memo () in
  let first = Checker.compare_pair ~memo ~base1:0 a1 ~base2:0 a2 in
  Alcotest.(check bool) "equal headers match" true first.Checker.all_match;
  Bytes.set (List.hd a1).Artifact.data 2 'X';
  let second = Checker.compare_pair ~memo ~base1:0 a1 ~base2:0 a2 in
  Alcotest.(check bool) "rewritten header mismatches" false
    second.Checker.all_match;
  check Alcotest.string "fresh digest"
    (Md5.to_hex (Md5.digest_string "MZX."))
    (List.hd second.Checker.verdicts).Checker.av_digest1

let () =
  Alcotest.run "checker"
    [
      ( "pairs",
        [
          Alcotest.test_case "hash artifact" `Quick test_hash_artifact;
          Alcotest.test_case "clean pair" `Quick test_clean_pair_matches;
          Alcotest.test_case "same base" `Quick test_same_base_needs_no_adjustment;
          Alcotest.test_case "tampered" `Quick test_tampered_section_detected;
          Alcotest.test_case "inputs not mutated" `Quick
            test_adjustment_does_not_mutate_inputs;
          Alcotest.test_case "missing artifact" `Quick
            test_missing_artifact_mismatch;
          Alcotest.test_case "length change" `Quick test_different_lengths_mismatch;
          Alcotest.test_case "metering" `Quick test_metering;
          Alcotest.test_case "hex digests" `Quick test_digests_are_hex;
        ] );
      ( "memo",
        [
          Alcotest.test_case "caller mutation" `Quick test_memo_caller_mutation;
          QCheck_alcotest.to_alcotest prop_memo_parity;
        ] );
    ]
