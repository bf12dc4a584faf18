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

(* --- Canonical shortcut parity ---------------------------------------- *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Vmi = Mc_vmi.Vmi
module Searcher = Modchecker.Searcher
module Orchestrator = Modchecker.Orchestrator
module Infect = Mc_malware.Infect

(* Every module each VM lists, as (name, (base, artifacts)). *)
let fetch_all cloud =
  List.init (Cloud.vm_count cloud) (fun vm ->
      let dom = Cloud.vm cloud vm in
      let vmi =
        Vmi.init dom
          (Mc_vmi.Symbols.of_variant
             (Mc_winkernel.Kernel.os_variant (Dom.kernel_exn dom)))
      in
      ( vm,
        List.filter_map
          (fun (info : Searcher.module_info) ->
            match Parser.artifacts (Searcher.copy_module vmi info) with
            | Ok arts -> Some (info.mi_name, (info.mi_base, arts))
            | Error _ -> None)
          (Searcher.list_modules vmi) ))

let scenarios =
  [
    ("opcode", fun c -> Infect.single_opcode_replacement c ~vm:1);
    ("hook", fun c -> Infect.inline_hook c ~vm:2);
    ("stub", fun c -> Infect.stub_modification c ~vm:3);
    ("dll-inject", fun c -> Infect.dll_injection c ~vm:4);
    ("ptr", fun c -> Infect.pointer_hook c ~vm:5);
    ("hide", fun c -> Infect.hide_module c ~vm:0 ~module_name:"tcpip.sys");
  ]

(* With and without slot tables, every module on every VM pair (and each
   VM against itself, where the bases are equal) gives a structurally
   equal pair_result and equal meter counts, one memo per run as in a
   check. The shortcut must actually fire on clean pairs. *)
let test_slot_table_parity () =
  List.iteri
    (fun i (name, infect) ->
      let cloud = Cloud.create ~vms:6 ~seed:(Int64.of_int (950 + i)) () in
      (match infect cloud with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      let fetched = fetch_all cloud in
      let modules =
        List.sort_uniq compare
          (List.concat_map (fun (_, ms) -> List.map fst ms) fetched)
      in
      let decided = ref 0 in
      List.iter
        (fun module_name ->
          let copies =
            List.filter_map
              (fun (vm, ms) ->
                Option.map (fun c -> (vm, c)) (List.assoc_opt module_name ms))
              fetched
          in
          let pairs =
            List.concat_map
              (fun (v, cv) ->
                List.filter_map
                  (fun (u, cu) -> if v <= u then Some ((v, cv), (u, cu)) else None)
                  copies)
              copies
          in
          let run with_slots =
            let memo = Checker.create_memo () in
            List.map
              (fun ((v, (base1, a1)), (u, (base2, a2))) ->
                let meter = Meter.create () in
                Meter.set_phase meter Meter.Checker;
                let slots vm =
                  Orchestrator.slot_tables
                    ~version:(Cloud.vm_patch_level cloud vm)
                    module_name
                in
                let r, d =
                  if with_slots then
                    Checker.compare_sides ~meter ~memo
                      (Checker.prepare ~slots:(slots v) ~base:base1 a1)
                      (Checker.prepare ~slots:(slots u) ~base:base2 a2)
                  else
                    ( Checker.compare_pair ~meter ~memo ~base1 a1 ~base2 a2,
                      0 )
                in
                decided := !decided + d;
                ((v, u), r, Meter.pairs (Meter.get meter Meter.Checker)))
              pairs
          in
          let plain = run false and tabled = run true in
          List.iter2
            (fun ((v, u), r0, m0) (_, r1, m1) ->
              let what = Printf.sprintf "%s %s Dom%d/Dom%d" name module_name v u in
              Alcotest.(check bool) (what ^ " pair_result") true (r0 = r1);
              Alcotest.(check (list (pair string int))) (what ^ " meter") m0 m1)
            plain tabled)
        modules;
      Alcotest.(check bool) (name ^ ": shortcut taken") true (!decided > 0))
    scenarios

(* Owned sides, as a check builds them: one side per VM over a private
   copy of its artifacts, canonicalized in place and reused across every
   pair the VM joins, its self pair included. Every pair_result and meter
   equals the copying run's ([compare_pair] on the untouched artifacts),
   so no pair sees bytes another pair left behind, and the shortcut
   still fires. *)
let test_owned_sides () =
  List.iteri
    (fun i (name, infect) ->
      let cloud = Cloud.create ~vms:6 ~seed:(Int64.of_int (950 + i)) () in
      (match infect cloud with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      let fetched = fetch_all cloud in
      let modules =
        List.sort_uniq compare
          (List.concat_map (fun (_, ms) -> List.map fst ms) fetched)
      in
      let decided = ref 0 in
      List.iter
        (fun module_name ->
          let copies =
            List.filter_map
              (fun (vm, ms) ->
                Option.map (fun c -> (vm, c)) (List.assoc_opt module_name ms))
              fetched
          in
          let sides =
            List.map
              (fun (vm, (base, arts)) ->
                let own_copy =
                  List.map
                    (fun (a : Artifact.t) -> { a with data = Bytes.copy a.data })
                    arts
                in
                ( vm,
                  Checker.own
                    ~slots:
                      (Orchestrator.slot_tables
                         ~version:(Cloud.vm_patch_level cloud vm)
                         module_name)
                    ~base own_copy ))
              copies
          in
          let memo_plain = Checker.create_memo ()
          and memo_owned = Checker.create_memo () in
          List.iter
            (fun (v, (base1, a1)) ->
              List.iter
                (fun (u, (base2, a2)) ->
                  if v <= u then begin
                    let run f =
                      let meter = Meter.create () in
                      Meter.set_phase meter Meter.Checker;
                      let r = f meter in
                      (r, Meter.pairs (Meter.get meter Meter.Checker))
                    in
                    let r0, m0 =
                      run (fun meter ->
                          Checker.compare_pair ~meter ~memo:memo_plain ~base1 a1
                            ~base2 a2)
                    in
                    let r1, m1 =
                      run (fun meter ->
                          let r, d =
                            Checker.compare_sides ~meter ~memo:memo_owned
                              (List.assoc v sides) (List.assoc u sides)
                          in
                          decided := !decided + d;
                          r)
                    in
                    let what =
                      Printf.sprintf "%s %s Dom%d/Dom%d" name module_name v u
                    in
                    Alcotest.(check bool) (what ^ " pair_result") true (r0 = r1);
                    Alcotest.(check (list (pair string int)))
                      (what ^ " meter") m0 m1
                  end)
                copies)
            copies)
        modules;
      Alcotest.(check bool) (name ^ ": shortcut taken") true (!decided > 0))
    scenarios

(* A guest section whose (RVA, length) matches no golden section gets no
   table: no shortcut, the exact result, and no new golden memo entry. *)
let test_forged_header_no_shortcut () =
  let base1 = 0xF8110000 and base2 = 0xF8770000 in
  let a1 = artifacts_at "hal.dll" base1 and a2 = artifacts_at "hal.dll" base2 in
  let slots = Orchestrator.slot_tables "hal.dll" in
  let genuine =
    snd
      (Checker.compare_sides
         (Checker.prepare ~slots ~base:base1 a1)
         (Checker.prepare ~slots ~base:base2 a2))
  in
  Alcotest.(check bool) "genuine sections take the shortcut" true (genuine > 0);
  let cached = Orchestrator.golden_tables_cached () in
  let forge f arts =
    List.map
      (fun (a : Artifact.t) -> if Artifact.is_section_data a then f a else a)
      arts
  in
  List.iter
    (fun (what, f) ->
      let f1 = forge f a1 and f2 = forge f a2 in
      let r, d =
        Checker.compare_sides
          (Checker.prepare ~slots ~base:base1 f1)
          (Checker.prepare ~slots ~base:base2 f2)
      in
      check Alcotest.int (what ^ ": no shortcut") 0 d;
      Alcotest.(check bool) (what ^ ": exact result") true
        (r = Checker.compare_pair ~base1 f1 ~base2 f2))
    [
      ("moved", fun (a : Artifact.t) -> { a with sec_rva = a.sec_rva + 0x1000 });
      ( "resized",
        fun (a : Artifact.t) -> { a with data = Bytes.cat a.data (Bytes.make 8 '\000') } );
    ];
  check Alcotest.int "golden memo did not grow" cached
    (Orchestrator.golden_tables_cached ())

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
      ( "slot tables",
        [
          Alcotest.test_case "six-scenario parity" `Quick test_slot_table_parity;
          Alcotest.test_case "owned sides" `Quick test_owned_sides;
          Alcotest.test_case "forged header" `Quick
            test_forged_header_no_shortcut;
        ] );
    ]
