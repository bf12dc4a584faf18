(* Tests for the related-work baselines: SVV, the signed-hash database,
   and LKIM. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Catalog = Mc_pe.Catalog
module Svv = Mc_baselines.Svv
module Hashdb = Mc_baselines.Hashdb
module Lkim = Mc_baselines.Lkim
module Infect = Mc_malware.Infect
module Artifact = Modchecker.Artifact

let check = Alcotest.check

let reference name = (Catalog.image name).Catalog.file

(* --- SVV -------------------------------------------------------------- *)

let test_svv_clean () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:21L () in
  match Svv.check (Cloud.vm cloud 0) ~module_name:"hal.dll" with
  | Ok v ->
      Alcotest.(check bool) "clean" true v.Svv.clean;
      check Alcotest.int "no mismatches" 0 (List.length v.Svv.mismatched)
  | Error e -> Alcotest.fail e

let test_svv_detects_memory_hook () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:21L () in
  let kernel = Dom.kernel_exn (Cloud.vm cloud 0) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  let rva = Catalog.fn_rva (Catalog.image "hal.dll") "HalInitSystem" in
  (match
     Mc_malware.Inline_hook.hook (Kernel.aspace kernel)
       ~module_base:hal.Mc_winkernel.Ldr.dll_base
       ~func_va:(hal.Mc_winkernel.Ldr.dll_base + rva)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Svv.check (Cloud.vm cloud 0) ~module_name:"hal.dll" with
  | Ok v ->
      Alcotest.(check bool) "memory-only hook detected" false v.Svv.clean;
      Alcotest.(check bool) ".text flagged" true
        (List.exists
           (fun k -> Artifact.equal_kind k (Artifact.Section_data ".text"))
           v.Svv.mismatched)
  | Error e -> Alcotest.fail e

let test_svv_misses_disk_then_load () =
  let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:21L () in
  (match Infect.single_opcode_replacement cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Svv.check (Cloud.vm cloud 0) ~module_name:"hal.dll" with
  | Ok v ->
      Alcotest.(check bool)
        "SVV's documented blind spot: memory matches infected disk" true
        v.Svv.clean
  | Error e -> Alcotest.fail e

let test_svv_missing_module () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:21L () in
  match Svv.check (Cloud.vm cloud 0) ~module_name:"ghost.sys" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing module must error"

(* --- Hashdb ------------------------------------------------------------ *)

let test_hashdb_basic () =
  let db = Hashdb.build_for_catalog [ "hal.dll"; "http.sys" ] in
  check Alcotest.int "entries" 2 (Hashdb.entries db);
  (match Hashdb.check_load db ~name:"hal.dll" (reference "hal.dll") with
  | Hashdb.Verified -> ()
  | _ -> Alcotest.fail "registered file must verify");
  (match Hashdb.check_load db ~name:"tcpip.sys" (reference "tcpip.sys") with
  | Hashdb.Unknown_module -> ()
  | _ -> Alcotest.fail "unregistered module is unknown");
  match Hashdb.check_load db ~name:"hal.dll" (reference "http.sys") with
  | Hashdb.Hash_mismatch -> ()
  | _ -> Alcotest.fail "wrong bytes must mismatch"

let test_hashdb_staleness () =
  let db = Hashdb.build_for_catalog [ "hal.dll" ] in
  check Alcotest.int "fresh db has no misses" 0 (Hashdb.maintenance_misses db);
  let v2 = (Catalog.image ~version:2 "hal.dll").Catalog.file in
  (match Hashdb.check_load db ~name:"hal.dll" v2 with
  | Hashdb.Hash_mismatch -> ()
  | _ -> Alcotest.fail "update must false-alarm a stale db");
  check Alcotest.int "miss counted" 1 (Hashdb.maintenance_misses db);
  (* Re-registering (a database refresh) clears the alarm. *)
  Hashdb.register db ~name:"hal.dll" v2;
  match Hashdb.check_load db ~name:"hal.dll" v2 with
  | Hashdb.Verified -> ()
  | _ -> Alcotest.fail "refreshed db must verify v2"

let test_hashdb_case_insensitive () =
  let db = Hashdb.build_for_catalog [ "hal.dll" ] in
  match Hashdb.check_load db ~name:"HAL.DLL" (reference "hal.dll") with
  | Hashdb.Verified -> ()
  | _ -> Alcotest.fail "name matching is case-insensitive"

let test_hashdb_no_memory_checking () =
  match Hashdb.check_memory_noop () with `Not_supported -> ()

(* --- LKIM --------------------------------------------------------------- *)

let test_lkim_clean () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:22L () in
  match
    Lkim.check (Cloud.vm cloud 0) ~module_name:"hal.dll"
      ~reference:(reference "hal.dll")
  with
  | Ok v -> Alcotest.(check bool) "clean" true v.Lkim.clean
  | Error e -> Alcotest.fail e

let test_lkim_detects_disk_then_load () =
  let cloud = Cloud.create ~vms:2 ~cores:2 ~seed:22L () in
  (match Infect.single_opcode_replacement cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Lkim.check (Cloud.vm cloud 0) ~module_name:"hal.dll"
      ~reference:(reference "hal.dll")
  with
  | Ok v ->
      Alcotest.(check bool) "detected" false v.Lkim.clean;
      Alcotest.(check bool) ".text flagged" true
        (List.exists
           (fun k -> Artifact.equal_kind k (Artifact.Section_data ".text"))
           v.Lkim.mismatched)
  | Error e -> Alcotest.fail e

let test_lkim_detects_memory_hook () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:22L () in
  let kernel = Dom.kernel_exn (Cloud.vm cloud 0) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  let rva = Catalog.fn_rva (Catalog.image "hal.dll") "HalInitSystem" in
  (match
     Mc_malware.Inline_hook.hook (Kernel.aspace kernel)
       ~module_base:hal.Mc_winkernel.Ldr.dll_base
       ~func_va:(hal.Mc_winkernel.Ldr.dll_base + rva)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Lkim.check (Cloud.vm cloud 0) ~module_name:"hal.dll"
      ~reference:(reference "hal.dll")
  with
  | Ok v -> Alcotest.(check bool) "detected" false v.Lkim.clean
  | Error e -> Alcotest.fail e

let test_lkim_stale_reference_false_alarm () =
  let cloud = Cloud.create ~vms:1 ~cores:2 ~seed:22L () in
  (* The guest legitimately runs v2; LKIM still holds v1. *)
  let v2 = (Catalog.image ~version:2 "hal.dll").Catalog.file in
  Infect.write_module_file (Cloud.vm cloud 0) ~name:"hal.dll" v2;
  Cloud.reboot_vm cloud 0;
  match
    Lkim.check (Cloud.vm cloud 0) ~module_name:"hal.dll"
      ~reference:(reference "hal.dll")
  with
  | Ok v ->
      Alcotest.(check bool) "stale reference false-alarms" false v.Lkim.clean
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "baselines"
    [
      ( "svv",
        [
          Alcotest.test_case "clean" `Quick test_svv_clean;
          Alcotest.test_case "memory hook" `Quick test_svv_detects_memory_hook;
          Alcotest.test_case "disk-then-load blind spot" `Quick
            test_svv_misses_disk_then_load;
          Alcotest.test_case "missing module" `Quick test_svv_missing_module;
        ] );
      ( "hashdb",
        [
          Alcotest.test_case "basic" `Quick test_hashdb_basic;
          Alcotest.test_case "staleness" `Quick test_hashdb_staleness;
          Alcotest.test_case "case-insensitive" `Quick
            test_hashdb_case_insensitive;
          Alcotest.test_case "no memory check" `Quick
            test_hashdb_no_memory_checking;
        ] );
      ( "lkim",
        [
          Alcotest.test_case "clean" `Quick test_lkim_clean;
          Alcotest.test_case "disk-then-load" `Quick
            test_lkim_detects_disk_then_load;
          Alcotest.test_case "memory hook" `Quick test_lkim_detects_memory_hook;
          Alcotest.test_case "stale reference" `Quick
            test_lkim_stale_reference_false_alarm;
        ] );
    ]
