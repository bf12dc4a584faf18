(* Tests for VM snapshot/restore — the paper's remediation mechanism. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Fs = Mc_winkernel.Fs
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Infect = Mc_malware.Infect
module As = Mc_memsim.Addr_space

let check = Alcotest.check

let verdict cloud vm =
  match Orchestrator.check_module cloud ~target_vm:vm ~module_name:"hal.dll" with
  | Ok o -> o.Orchestrator.report.Report.majority_ok
  | Error e -> Alcotest.fail e

let test_restore_flushes_memory_infection () =
  let cloud = Cloud.create ~vms:3 ~seed:1001L () in
  let snap = Cloud.snapshot_vm cloud 1 in
  (match Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "infected detected" false (verdict cloud 1);
  Cloud.restore_vm cloud 1 snap;
  Alcotest.(check bool) "restored VM votes intact" true (verdict cloud 1);
  (* And the hook's payload is gone from memory. *)
  let kernel = Dom.kernel_exn (Cloud.vm cloud 1) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  let rva = Mc_pe.Catalog.fn_rva (Mc_pe.Catalog.image "hal.dll") "HalInitSystem" in
  let prologue =
    As.read_bytes (Kernel.aspace kernel)
      (hal.Mc_winkernel.Ldr.dll_base + rva)
      4
  in
  check Alcotest.string "original prologue back" "55 8B EC 49"
    (Mc_util.Hexdump.bytes_inline prologue)

let test_restore_flushes_disk_infection () =
  let cloud = Cloud.create ~vms:3 ~seed:1002L () in
  let snap = Cloud.snapshot_vm cloud 0 in
  (match Infect.single_opcode_replacement cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "detected" false (verdict cloud 0);
  Cloud.restore_vm cloud 0 snap;
  Alcotest.(check bool) "intact after restore" true (verdict cloud 0);
  (* The on-disk file is the clean one again: rebooting does not
     re-infect. *)
  Cloud.reboot_vm cloud 0;
  Alcotest.(check bool) "still intact after reboot" true (verdict cloud 0)

let test_snapshot_is_isolated_from_live_vm () =
  let cloud = Cloud.create ~vms:2 ~seed:1003L () in
  let snap = Cloud.snapshot_vm cloud 0 in
  (* Mutate the live VM heavily after the capture. *)
  let kernel = Dom.kernel_exn (Cloud.vm cloud 0) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  As.write_bytes (Kernel.aspace kernel) hal.Mc_winkernel.Ldr.dll_base
    (Bytes.make 4096 '\xCC');
  Fs.write_file (Kernel.fs kernel) (Fs.module_path "hal.dll")
    (Bytes.of_string "garbage");
  Cloud.restore_vm cloud 0 snap;
  let kernel = Dom.kernel_exn (Cloud.vm cloud 0) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  check Alcotest.int "MZ back at base" Mc_pe.Flags.dos_magic
    (As.read_u16 (Kernel.aspace kernel) hal.Mc_winkernel.Ldr.dll_base);
  Alcotest.(check bool) "disk restored" true
    (Bytes.length
       (Option.get (Fs.read_file (Kernel.fs kernel) (Fs.module_path "hal.dll")))
    > 1000)

let test_snapshot_restores_multiple_times () =
  let cloud = Cloud.create ~vms:3 ~seed:1004L () in
  let snap = Cloud.snapshot_vm cloud 1 in
  for round = 1 to 3 do
    (match Infect.inline_hook cloud ~vm:1 with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Alcotest.(check bool)
      (Printf.sprintf "round %d detected" round)
      false (verdict cloud 1);
    Cloud.restore_vm cloud 1 snap;
    Alcotest.(check bool)
      (Printf.sprintf "round %d restored" round)
      true (verdict cloud 1)
  done

let test_restored_vm_fully_functional () =
  (* The restored kernel must keep working: module loads, unloads, and
     export resolution all operate on the copied structures. *)
  let cloud = Cloud.create ~vms:2 ~seed:1005L () in
  let snap = Cloud.snapshot_vm cloud 0 in
  Cloud.restore_vm cloud 0 snap;
  let dom = Cloud.vm cloud 0 in
  let kernel = Dom.kernel_exn dom in
  Infect.write_module_file dom ~name:"hello.sys"
    (Mc_pe.Catalog.image "hello.sys").Mc_pe.Catalog.file;
  (match Kernel.load_module kernel "hello.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Kernel.error_to_string e));
  Alcotest.(check bool) "loaded on restored VM" true
    (Kernel.find_module kernel "hello.sys" <> None);
  Alcotest.(check bool) "exports still resolvable" true
    (Kernel.resolve_export kernel ~dll:"ntoskrnl.exe"
       ~symbol:"NtoskrnlApi00"
    <> None);
  Alcotest.(check bool) "unload works" true (Kernel.unload_module kernel "hello.sys")

let test_dkom_flushed_by_restore () =
  let cloud = Cloud.create ~vms:3 ~seed:1006L () in
  let snap = Cloud.snapshot_vm cloud 2 in
  (match Infect.hide_module cloud ~vm:2 ~module_name:"http.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "hidden" 1
    (List.length (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies);
  Cloud.restore_vm cloud 2 snap;
  check Alcotest.int "list consistent again" 0
    (List.length (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies)

let () =
  Alcotest.run "snapshot"
    [
      ( "restore",
        [
          Alcotest.test_case "flushes memory infection" `Quick
            test_restore_flushes_memory_infection;
          Alcotest.test_case "flushes disk infection" `Quick
            test_restore_flushes_disk_infection;
          Alcotest.test_case "isolation" `Quick
            test_snapshot_is_isolated_from_live_vm;
          Alcotest.test_case "multiple restores" `Quick
            test_snapshot_restores_multiple_times;
          Alcotest.test_case "functional afterwards" `Quick
            test_restored_vm_fully_functional;
          Alcotest.test_case "dkom flushed" `Quick test_dkom_flushed_by_restore;
        ] );
    ]
