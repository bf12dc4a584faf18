(* Tests for Module-Parser (Algorithm 1) and the artifact model. *)

module Parser = Modchecker.Parser
module Artifact = Modchecker.Artifact
module Catalog = Mc_pe.Catalog
module Loader = Mc_winkernel.Loader
module Meter = Mc_hypervisor.Meter

let check = Alcotest.check

let memory_image ?(name = "dummy.sys") ?(base = 0xF8200000) () =
  match Loader.simulate_load (Catalog.image name).Catalog.file ~base with
  | Ok m -> m
  | Error e -> Alcotest.fail (Loader.error_to_string e)

let artifacts_exn mem =
  match Parser.artifacts mem with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let kind_names artifacts =
  List.map (fun (a : Artifact.t) -> Artifact.kind_name a.Artifact.kind) artifacts

let test_artifact_kinds () =
  let artifacts = artifacts_exn (memory_image ()) in
  check
    Alcotest.(list string)
    "expected artifact decomposition"
    [
      "IMAGE_DOS_HEADER"; "IMAGE_NT_HEADER"; "IMAGE_FILE_HEADER";
      "IMAGE_OPTIONAL_HEADER"; "SECTION_HEADER(.text)"; ".text";
      "SECTION_HEADER(.rdata)"; ".rdata"; "SECTION_HEADER(.data)";
      "SECTION_HEADER(.reloc)";
    ]
    (kind_names artifacts)

(* Every kind any catalog module decomposes into names itself as the
   report format spells it, and parses back from that name. *)
let test_kind_names_round_trip () =
  List.iter
    (fun name ->
      List.iter
        (fun (a : Artifact.t) ->
          let k = a.Artifact.kind in
          let n = Artifact.kind_name k in
          (match k with
          | Artifact.Section_header s ->
              check Alcotest.string "section header spelling"
                (Printf.sprintf "SECTION_HEADER(%s)" s) n
          | _ -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s parses back" name n)
            true
            (Artifact.equal_kind k (Artifact.kind_of_name n)))
        (artifacts_exn (memory_image ~name ())))
    Catalog.standard_modules

let test_writable_data_not_hashed () =
  let artifacts = artifacts_exn (memory_image ()) in
  Alcotest.(check bool) ".data section data excluded" true
    (Artifact.find artifacts (Artifact.Section_data ".data") = None);
  Alcotest.(check bool) ".data header included" true
    (Artifact.find artifacts (Artifact.Section_header ".data") <> None)

let test_discardable_not_hashed () =
  let artifacts = artifacts_exn (memory_image ()) in
  Alcotest.(check bool) ".reloc data excluded" true
    (Artifact.find artifacts (Artifact.Section_data ".reloc") = None)

let test_dos_header_includes_stub () =
  let artifacts = artifacts_exn (memory_image ()) in
  let dos = Option.get (Artifact.find artifacts Artifact.Dos_header) in
  let s = Bytes.to_string dos.Artifact.data in
  Alcotest.(check bool) "stub text present" true
    (let needle = "DOS mode" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  Alcotest.(check bool) "bigger than bare header" true
    (Bytes.length dos.Artifact.data > Mc_pe.Types.dos_header_size)

let test_nt_header_contains_file_and_optional () =
  let artifacts = artifacts_exn (memory_image ()) in
  let nt = Option.get (Artifact.find artifacts Artifact.Nt_header) in
  let file = Option.get (Artifact.find artifacts Artifact.File_header) in
  let opt = Option.get (Artifact.find artifacts Artifact.Optional_header) in
  check Alcotest.int "NT = sig + FILE + OPTIONAL"
    (4 + Bytes.length file.Artifact.data + Bytes.length opt.Artifact.data)
    (Bytes.length nt.Artifact.data);
  check Alcotest.int "FILE header size" Mc_pe.Types.file_header_size
    (Bytes.length file.Artifact.data);
  check Alcotest.int "OPTIONAL header size" Mc_pe.Types.optional_header_size
    (Bytes.length opt.Artifact.data);
  (* The NT blob embeds the FILE header verbatim after the signature. *)
  check Alcotest.string "FILE embedded in NT"
    (Bytes.to_string file.Artifact.data)
    (Bytes.sub_string nt.Artifact.data 4 Mc_pe.Types.file_header_size)

let test_section_rva_recorded () =
  let artifacts = artifacts_exn (memory_image ()) in
  let text = Option.get (Artifact.find artifacts (Artifact.Section_data ".text")) in
  check Alcotest.int "text rva" (Catalog.image "dummy.sys").Catalog.text_rva
    text.Artifact.sec_rva

let test_section_header_size () =
  let artifacts = artifacts_exn (memory_image ()) in
  let hdr =
    Option.get (Artifact.find artifacts (Artifact.Section_header ".text"))
  in
  check Alcotest.int "40 bytes" Mc_pe.Types.section_header_size
    (Bytes.length hdr.Artifact.data)

let test_parse_error () =
  match Parser.artifacts (Bytes.make 64 '\xFF') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let test_metering () =
  let meter = Meter.create () in
  Meter.set_phase meter Meter.Parser;
  ignore (Parser.artifacts ~meter (memory_image ()));
  let c = Meter.get meter Meter.Parser in
  Alcotest.(check bool) "bytes parsed" true (c.Meter.bytes_parsed > 0);
  check Alcotest.int "sections parsed" 4 c.Meter.sections_parsed

let test_artifact_helpers () =
  Alcotest.(check bool) "equal kinds" true
    (Artifact.equal_kind (Artifact.Section_data ".text")
       (Artifact.Section_data ".text"));
  Alcotest.(check bool) "different names" false
    (Artifact.equal_kind (Artifact.Section_data ".text")
       (Artifact.Section_data ".data"));
  Alcotest.(check bool) "different constructors" false
    (Artifact.equal_kind Artifact.Dos_header Artifact.Nt_header);
  Alcotest.(check bool) "is_section_data" true
    (Artifact.is_section_data
       { Artifact.kind = Artifact.Section_data ".text"; data = Bytes.create 0; sec_rva = 0 });
  Alcotest.(check bool) "header is not section data" false
    (Artifact.is_section_data
       { Artifact.kind = Artifact.Dos_header; data = Bytes.create 0; sec_rva = 0 })

let test_hal_artifacts_consistent_across_bases () =
  (* Headers are position-independent: identical bytes at any base. *)
  let a = artifacts_exn (memory_image ~name:"hal.dll" ~base:0xF8100000 ()) in
  let b = artifacts_exn (memory_image ~name:"hal.dll" ~base:0xF8990000 ()) in
  List.iter
    (fun kind ->
      let ga = Option.get (Artifact.find a kind) in
      let gb = Option.get (Artifact.find b kind) in
      Alcotest.(check bool)
        (Artifact.kind_name kind ^ " base-independent")
        true
        (Bytes.equal ga.Artifact.data gb.Artifact.data))
    Artifact.
      [ Dos_header; Nt_header; File_header; Optional_header;
        Section_header ".text" ];
  (* ...but relocated section data is not. *)
  let ta = Option.get (Artifact.find a (Artifact.Section_data ".text")) in
  let tb = Option.get (Artifact.find b (Artifact.Section_data ".text")) in
  Alcotest.(check bool) ".text differs across bases" false
    (Bytes.equal ta.Artifact.data tb.Artifact.data)

let () =
  Alcotest.run "parser"
    [
      ( "artifacts",
        [
          Alcotest.test_case "kinds" `Quick test_artifact_kinds;
          Alcotest.test_case "kind names round-trip" `Quick
            test_kind_names_round_trip;
          Alcotest.test_case "writable excluded" `Quick
            test_writable_data_not_hashed;
          Alcotest.test_case "discardable excluded" `Quick
            test_discardable_not_hashed;
          Alcotest.test_case "dos stub" `Quick test_dos_header_includes_stub;
          Alcotest.test_case "nt composition" `Quick
            test_nt_header_contains_file_and_optional;
          Alcotest.test_case "section rva" `Quick test_section_rva_recorded;
          Alcotest.test_case "header size" `Quick test_section_header_size;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "metering" `Quick test_metering;
          Alcotest.test_case "helpers" `Quick test_artifact_helpers;
          Alcotest.test_case "base independence" `Quick
            test_hal_artifacts_consistent_across_bases;
        ] );
    ]
