(* Tests for the synthetic driver catalog. *)

module Catalog = Mc_pe.Catalog
module Read = Mc_pe.Read
module Codegen = Mc_pe.Codegen
module Flags = Mc_pe.Flags

let check = Alcotest.check

let test_deterministic () =
  let a = Catalog.build (Catalog.generate "hal.dll") in
  let b = Catalog.build (Catalog.generate "hal.dll") in
  check Alcotest.bool "same bytes" true (Bytes.equal a.file b.file)

let test_version_changes_content () =
  let v1 = Catalog.build (Catalog.generate ~version:1 "hal.dll") in
  let v2 = Catalog.build (Catalog.generate ~version:2 "hal.dll") in
  check Alcotest.bool "different bytes" false (Bytes.equal v1.file v2.file)

let test_names_differ () =
  let a = Catalog.build (Catalog.generate "ndis.sys") in
  let b = Catalog.build (Catalog.generate "tcpip.sys") in
  check Alcotest.bool "different modules differ" false (Bytes.equal a.file b.file)

let test_memoized () =
  let a = Catalog.image "disk.sys" and b = Catalog.image "disk.sys" in
  check Alcotest.bool "physically shared" true (a == b)

let test_memo_domain_safe () =
  (* Four domains ask for the same never-built names at the same moment:
     each name must be built once and shared, and no domain may raise. *)
  let names = List.init 6 (Printf.sprintf "memo_race_%d.sys") in
  let ready = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            try Ok (List.map (fun n -> Catalog.image n) names)
            with e -> Error (Printexc.to_string e)))
  in
  let results =
    List.map
      (fun d ->
        match Domain.join d with
        | Ok built -> built
        | Error e -> Alcotest.failf "a domain raised: %s" e)
      domains
  in
  List.iteri
    (fun i name ->
      let first = Catalog.image name in
      List.iter
        (fun built ->
          check Alcotest.bool (name ^ " physically shared") true
            (List.nth built i == first))
        results)
    names

let test_standard_set_parses () =
  List.iter
    (fun name ->
      let built = Catalog.image name in
      match Read.parse ~layout:File built.file with
      | Ok image ->
          (* .text .rdata .data .edata .reloc for system modules *)
          check Alcotest.int
            (name ^ " has 5 sections")
            5 image.file_header.number_of_sections;
          (match Read.verify_checksum built.file with
          | Ok true -> ()
          | _ -> Alcotest.fail (name ^ " checksum invalid"))
      | Error e -> Alcotest.fail (name ^ ": " ^ Read.error_to_string e))
    Catalog.standard_modules

let test_text_size_targets () =
  List.iter
    (fun name ->
      let built = Catalog.image name in
      let image =
        match Read.parse ~layout:File built.file with
        | Ok i -> i
        | Error e -> Alcotest.fail (Read.error_to_string e)
      in
      match Read.find_section image ".text" with
      | Some (sec, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s .text >= target (0x%x >= 0x%x)" name
               sec.virtual_size (Catalog.text_size_of name))
            true
            (sec.virtual_size >= Catalog.text_size_of name)
      | None -> Alcotest.fail (name ^ " has no .text"))
    [ "hal.dll"; "http.sys"; "hello.sys" ]

let test_hal_init_system () =
  let built = Catalog.image "hal.dll" in
  let rva = Catalog.fn_rva built "HalInitSystem" in
  check Alcotest.int "HalInitSystem is the first function" built.text_rva rva;
  (* The fixed prologue bytes the experiments rely on:
     55 (push ebp), 8B EC (mov ebp,esp), 49 (dec ecx). *)
  let image =
    match Read.parse ~layout:File built.file with
    | Ok i -> i
    | Error e -> Alcotest.fail (Read.error_to_string e)
  in
  let _, text = Option.get (Read.find_section image ".text") in
  check Alcotest.string "prologue bytes" "55 8B EC 49"
    (Mc_util.Hexdump.bytes_inline (Bytes.sub text 0 4))

let test_fn_rva_missing () =
  let built = Catalog.image "hal.dll" in
  Alcotest.check_raises "unknown function" Not_found (fun () ->
      ignore (Catalog.fn_rva built "NoSuchFunction"))

let test_fn_offsets_monotonic () =
  let built = Catalog.image "ndis.sys" in
  let offsets = List.map snd built.fn_offsets in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "function offsets strictly increase" true
    (increasing offsets)

let test_caves_present () =
  let built = Catalog.image "hal.dll" in
  let image =
    match Read.parse ~layout:File built.file with
    | Ok i -> i
    | Error e -> Alcotest.fail (Read.error_to_string e)
  in
  let _, text = Option.get (Read.find_section image ".text") in
  match Codegen.find_cave text ~min_len:16 ~from:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected inter-function caves of 16+ zeros"

let test_entry_point_is_first_function () =
  let built = Catalog.image "dummy.sys" in
  let image =
    match Read.parse ~layout:File built.file with
    | Ok i -> i
    | Error e -> Alcotest.fail (Read.error_to_string e)
  in
  check Alcotest.int "entry rva" built.text_rva
    image.optional_header.address_of_entry_point

let test_relocs_cover_rdata_fn_table () =
  (* The .rdata function-pointer table entries must be base-relocated. *)
  let built = Catalog.image "disk.sys" in
  let image =
    match Read.parse ~layout:File built.file with
    | Ok i -> i
    | Error e -> Alcotest.fail (Read.error_to_string e)
  in
  let slots = Read.base_relocations ~layout:File built.file image in
  let n_table = Array.length built.built_source.fn_table in
  let table_slots =
    List.filter
      (fun rva -> rva >= built.rdata_rva && rva < built.rdata_rva + (4 * n_table))
      slots
  in
  check Alcotest.int "one slot per fn-table entry" n_table
    (List.length table_slots)

let test_unknown_module_default_size () =
  check Alcotest.int "default text size" 0x4000
    (Catalog.text_size_of "whatever.sys")

let test_section_characteristics () =
  let built = Catalog.image "dummy.sys" in
  let image =
    match Read.parse ~layout:File built.file with
    | Ok i -> i
    | Error e -> Alcotest.fail (Read.error_to_string e)
  in
  let chars name =
    (fst (Option.get (Read.find_section image name))).Mc_pe.Types.sec_characteristics
  in
  Alcotest.(check bool) ".text executable" true
    (chars ".text" land Flags.mem_execute <> 0);
  Alcotest.(check bool) ".data writable" true
    (chars ".data" land Flags.mem_write <> 0);
  Alcotest.(check bool) ".rdata read-only" true
    (chars ".rdata" land Flags.mem_write = 0);
  Alcotest.(check bool) ".reloc discardable" true
    (chars ".reloc" land Flags.mem_discardable <> 0)

let () =
  Alcotest.run "catalog"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "version" `Quick test_version_changes_content;
          Alcotest.test_case "names" `Quick test_names_differ;
          Alcotest.test_case "memoized" `Quick test_memoized;
          Alcotest.test_case "memo domain-safe" `Quick test_memo_domain_safe;
          Alcotest.test_case "default size" `Quick
            test_unknown_module_default_size;
        ] );
      ( "structure",
        [
          Alcotest.test_case "standard set parses" `Slow
            test_standard_set_parses;
          Alcotest.test_case "text sizes" `Quick test_text_size_targets;
          Alcotest.test_case "HalInitSystem" `Quick test_hal_init_system;
          Alcotest.test_case "fn_rva missing" `Quick test_fn_rva_missing;
          Alcotest.test_case "offsets monotonic" `Quick
            test_fn_offsets_monotonic;
          Alcotest.test_case "caves" `Quick test_caves_present;
          Alcotest.test_case "entry point" `Quick
            test_entry_point_is_first_function;
          Alcotest.test_case "rdata table relocs" `Quick
            test_relocs_cover_rdata_fn_table;
          Alcotest.test_case "characteristics" `Quick
            test_section_characteristics;
        ] );
    ]
