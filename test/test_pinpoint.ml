(* Tests for dAnubis-style patched-function pinpointing. *)

module Pinpoint = Modchecker.Pinpoint
module Parser = Modchecker.Parser
module Artifact = Modchecker.Artifact
module Catalog = Mc_pe.Catalog
module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Vmi = Mc_vmi.Vmi
module Searcher = Modchecker.Searcher

let check = Alcotest.check

let test_diff_offsets () =
  let a = Bytes.of_string "abcdef" and b = Bytes.of_string "aXcdeZ" in
  check Alcotest.(list int) "positions" [ 1; 5 ] (Pinpoint.diff_offsets a b);
  check Alcotest.(list int) "equal" [] (Pinpoint.diff_offsets a (Bytes.copy a));
  let longer = Bytes.of_string "abcdefgh" in
  check Alcotest.(list int) "tail counts" [ 6; 7 ]
    (Pinpoint.diff_offsets (Bytes.of_string "abcdef") longer)

let test_attribute () =
  let symbols = [ ("f1", 0x1000); ("f2", 0x1040); ("f3", 0x1100) ] in
  let findings =
    Pinpoint.attribute ~symbols ~section_rva:0x1000 [ 0x02; 0x05; 0x45; 0x46 ]
  in
  match findings with
  | [ a; b ] ->
      check Alcotest.string "first fn" "f1" a.Pinpoint.pf_function;
      check Alcotest.int "f1 diffs" 2 a.Pinpoint.pf_diff_bytes;
      check Alcotest.int "first diff rva" 0x1002 a.Pinpoint.pf_first_diff_rva;
      check Alcotest.string "second fn" "f2" b.Pinpoint.pf_function;
      check Alcotest.int "f2 diffs" 2 b.Pinpoint.pf_diff_bytes;
      check Alcotest.int "f2 rva" 0x1040 b.Pinpoint.pf_fn_rva
  | l -> Alcotest.fail (Printf.sprintf "expected 2 findings, got %d" (List.length l))

let test_attribute_before_first_symbol () =
  let findings =
    Pinpoint.attribute ~symbols:[ ("f1", 0x1100) ] ~section_rva:0x1000 [ 0x4 ]
  in
  match findings with
  | [ f ] -> check Alcotest.string "pseudo function" "<headers/pad>" f.pf_function
  | _ -> Alcotest.fail "expected one finding"

let artifacts_of_vm cloud vm name =
  let dom = Cloud.vm cloud vm in
  let vmi =
    Vmi.init dom
      (Mc_vmi.Symbols.of_variant (Kernel.os_variant (Dom.kernel_exn dom)))
  in
  match Searcher.fetch vmi ~name with
  | Some (info, buf) -> (
      match Parser.artifacts buf with
      | Ok a -> (info, a)
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail (name ^ " not loaded")

let test_pinpoints_hooked_function () =
  let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:401L () in
  (match Mc_malware.Infect.inline_hook cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let info1, a1 = artifacts_of_vm cloud 0 "hal.dll" in
  let info2, a2 = artifacts_of_vm cloud 1 "hal.dll" in
  let symbols = Catalog.symbols (Catalog.image "hal.dll") in
  match
    Pinpoint.analyze_text_pair ~base1:info1.Searcher.mi_base a1
      ~base2:info2.Searcher.mi_base a2 ~symbols
  with
  | Error e -> Alcotest.fail e
  | Ok findings ->
      Alcotest.(check bool) "something found" true (findings <> []);
      (* The hook patched HalInitSystem's prologue and a nearby cave; the
         first finding must be the hooked function itself. *)
      (match findings with
      | first :: _ ->
          check Alcotest.string "patched function named" "HalInitSystem"
            first.Pinpoint.pf_function
      | [] -> assert false);
      (* Everything the hook touched lies inside HalInitSystem's extent
         (prologue + its cave). *)
      Alcotest.(check bool) "few functions implicated" true
        (List.length findings <= 2)

let test_clean_pair_pinpoints_nothing () =
  let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:402L () in
  let info1, a1 = artifacts_of_vm cloud 0 "hal.dll" in
  let info2, a2 = artifacts_of_vm cloud 1 "hal.dll" in
  let symbols = Catalog.symbols (Catalog.image "hal.dll") in
  match
    Pinpoint.analyze_text_pair ~base1:info1.Searcher.mi_base a1
      ~base2:info2.Searcher.mi_base a2 ~symbols
  with
  | Error e -> Alcotest.fail e
  | Ok findings ->
      check Alcotest.int "nothing to report" 0 (List.length findings)

let test_opcode_patch_pinpointed () =
  let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:403L () in
  (match Mc_malware.Infect.single_opcode_replacement cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let info1, a1 = artifacts_of_vm cloud 0 "hal.dll" in
  let info2, a2 = artifacts_of_vm cloud 1 "hal.dll" in
  let symbols = Catalog.symbols (Catalog.image "hal.dll") in
  match
    Pinpoint.analyze_text_pair ~base1:info1.Searcher.mi_base a1
      ~base2:info2.Searcher.mi_base a2 ~symbols
  with
  | Error e -> Alcotest.fail e
  | Ok findings -> (
      match findings with
      | first :: _ ->
          check Alcotest.string "the edited function" "HalInitSystem"
            first.Pinpoint.pf_function;
          (* The rewrite shifted only bytes within the function; diffs stay
             inside its extent, so no other function is implicated. *)
          check Alcotest.int "exactly one function" 1 (List.length findings)
      | [] -> Alcotest.fail "expected findings")

(* The Merkle descent only narrows the byte survey: restricted to the
   deviant pages it names, attribution must equal the whole-section
   survey's, which stays the reference. *)
let test_descent_ranges_agree () =
  List.iter
    (fun (name, module_name, infect) ->
      let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:404L () in
      (match infect cloud with Ok _ -> () | Error e -> Alcotest.fail e);
      let info1, a1 = artifacts_of_vm cloud 0 module_name in
      let info2, a2 = artifacts_of_vm cloud 1 module_name in
      let base1 = info1.Searcher.mi_base and base2 = info2.Searcher.mi_base in
      let symbols = Catalog.symbols (Catalog.image module_name) in
      let findings ?ranges () =
        match Pinpoint.analyze_text_pair ?ranges ~base1 a1 ~base2 a2 ~symbols with
        | Ok fs ->
            List.map
              (fun f ->
                Printf.sprintf "%s@0x%x first 0x%x x%d" f.Pinpoint.pf_function
                  f.Pinpoint.pf_fn_rva f.Pinpoint.pf_first_diff_rva
                  f.Pinpoint.pf_diff_bytes)
              fs
        | Error e -> Alcotest.fail e
      in
      match Pinpoint.descent_ranges ~base1 a1 ~base2 a2 with
      | None -> Alcotest.fail (name ^ ": no descent over same-size .text")
      | Some ranges ->
          let reference = findings () in
          check Alcotest.bool
            (name ^ ": descent finds pages iff the survey finds bytes")
            (reference <> []) (ranges <> []);
          check Alcotest.(list string) (name ^ ": same findings") reference
            (findings ~ranges ()))
    Mc_malware.Infect.
      [
        ("opcode", "hal.dll", fun c -> single_opcode_replacement c ~vm:0);
        ("hook", "hal.dll", fun c -> inline_hook c ~vm:0);
        ("stub", "hello.sys", fun c -> stub_modification c ~vm:0);
      ]

let test_missing_text_errors () =
  match
    Pinpoint.analyze_text_pair ~base1:0 [] ~base2:0 [] ~symbols:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no .text must error"

let () =
  Alcotest.run "pinpoint"
    [
      ( "mechanics",
        [
          Alcotest.test_case "diff offsets" `Quick test_diff_offsets;
          Alcotest.test_case "attribute" `Quick test_attribute;
          Alcotest.test_case "before first symbol" `Quick
            test_attribute_before_first_symbol;
          Alcotest.test_case "missing text" `Quick test_missing_text_errors;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "hooked function" `Quick
            test_pinpoints_hooked_function;
          Alcotest.test_case "clean pair" `Quick test_clean_pair_pinpoints_nothing;
          Alcotest.test_case "opcode patch" `Quick test_opcode_patch_pinpointed;
          Alcotest.test_case "descent ranges agree" `Quick
            test_descent_ranges_agree;
        ] );
    ]
