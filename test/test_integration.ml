(* End-to-end integration stories that cross every library boundary. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Infect = Mc_malware.Infect
module Artifact = Modchecker.Artifact
module Catalog = Mc_pe.Catalog

let check = Alcotest.check

let verdict cloud vm name =
  match Orchestrator.check_module cloud ~target_vm:vm ~module_name:name with
  | Ok o -> o.Orchestrator.report
  | Error e -> Alcotest.fail e

(* Story 1: infection, detection, remediation. Ops detects the deviant VM,
   restores the golden file (the paper's "revert to clean snapshot"), and
   the pool converges again. *)
let test_detect_and_remediate () =
  let cloud = Cloud.create ~vms:4 ~seed:301L () in
  (match Infect.single_opcode_replacement cloud ~vm:2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let survey = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.(list int) "deviant identified" [ 2 ] survey.Report.deviant_vms;
  (* Remediate: restore the clean file and reboot. *)
  Infect.write_module_file (Cloud.vm cloud 2) ~name:"hal.dll"
    (Catalog.image "hal.dll").Catalog.file;
  Cloud.reboot_vm cloud 2;
  let survey = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.(list int) "pool clean again" [] survey.Report.deviant_vms;
  Alcotest.(check bool) "victim votes intact" true
    (verdict cloud 2 "hal.dll").Report.majority_ok

(* Story 2: two different VMs infected with different techniques at once;
   each is pinned with its own artifact signature. *)
let test_two_simultaneous_infections () =
  let cloud = Cloud.create ~vms:6 ~seed:302L () in
  (match Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Infect.single_opcode_replacement cloud ~vm:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let survey = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.(list int) "both deviants found" [ 1; 4 ]
    (List.sort compare survey.Report.deviant_vms);
  List.iter
    (fun vm ->
      let r = verdict cloud vm "hal.dll" in
      Alcotest.(check bool) "flagged" false r.Report.majority_ok;
      check
        Alcotest.(list string)
        "only .text" [ ".text" ]
        (List.map Artifact.kind_name r.Report.flagged_artifacts))
    [ 1; 4 ];
  (* Clean VMs still pass: 3 of 5 comparisons succeed. *)
  let r = verdict cloud 0 "hal.dll" in
  Alcotest.(check bool) "clean VM passes" true r.Report.majority_ok;
  check Alcotest.int "3/5 matches" 3 r.Report.matches

(* Story 3: every module of the standard set stays consistent across a
   freshly booted pool — a full-catalog sweep. *)
let test_full_catalog_sweep () =
  let cloud = Cloud.create ~vms:3 ~seed:303L () in
  List.iter
    (fun name ->
      let r = verdict cloud 0 name in
      Alcotest.(check bool) (name ^ " intact") true r.Report.majority_ok)
    Catalog.standard_modules

(* Story 4: DKOM-hidden module is invisible to the hash check but caught
   by list comparison; unhiding is impossible, so remediation is a
   reboot. *)
let test_dkom_story () =
  let cloud = Cloud.create ~vms:3 ~seed:304L () in
  (match Infect.hide_module cloud ~vm:1 ~module_name:"http.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* The named check on the victim errors out (module gone)... *)
  (match
     Orchestrator.check_module cloud ~target_vm:1 ~module_name:"http.sys"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hidden module should not be found");
  (* ...but the cross-VM list comparison names the victim. *)
  (match (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies with
  | [ d ] -> check Alcotest.(list int) "victim" [ 1 ] d.Orchestrator.missing_on
  | _ -> Alcotest.fail "expected exactly one discrepancy");
  Cloud.reboot_vm cloud 1;
  check Alcotest.int "reboot clears the hiding" 0
    (List.length (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies)

(* Story 5: the paper's scale — 15 VMs, 8 cores — full detection of the
   flagship experiment with per-artifact verification. *)
let test_paper_scale () =
  let cloud = Cloud.create ~vms:15 ~cores:8 ~seed:305L () in
  (match Infect.dll_injection cloud ~vm:9 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = verdict cloud 9 "dummy.sys" in
  Alcotest.(check bool) "detected at 15 VMs" false r.Report.majority_ok;
  check Alcotest.int "14 comparisons" 14 r.Report.total;
  check Alcotest.int "0 matches" 0 r.Report.matches;
  let flagged = List.map Artifact.kind_name r.Report.flagged_artifacts in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " flagged") true
        (List.mem expected flagged))
    [
      "IMAGE_NT_HEADER"; "IMAGE_OPTIONAL_HEADER"; "SECTION_HEADER(.text)";
      ".text";
    ];
  Alcotest.(check bool) "DOS not flagged" false
    (List.mem "IMAGE_DOS_HEADER" flagged);
  Alcotest.(check bool) "FILE not flagged" false
    (List.mem "IMAGE_FILE_HEADER" flagged)

(* Story 7: the monitor's Fig. 9 run alongside an actual check — the
   introspected VM's simulated counters show no reaction while the check
   flags real infections. *)
let test_monitoring_during_check () =
  let cloud = Cloud.create ~vms:3 ~seed:307L () in
  let samples =
    Mc_workload.Monitor.run ~stressed:false
      ~introspection_windows:[ (5.0, 8.0) ] ()
  in
  (match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Ok o -> Alcotest.(check bool) "check ok" true o.report.Report.majority_ok
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no perturbation" true
    (Mc_workload.Monitor.perturbation samples < 1.0)

let () =
  Alcotest.run "integration"
    [
      ( "stories",
        [
          Alcotest.test_case "detect and remediate" `Quick
            test_detect_and_remediate;
          Alcotest.test_case "two infections" `Quick
            test_two_simultaneous_infections;
          Alcotest.test_case "full catalog sweep" `Quick test_full_catalog_sweep;
          Alcotest.test_case "dkom story" `Quick test_dkom_story;
          Alcotest.test_case "paper scale" `Slow test_paper_scale;
          Alcotest.test_case "monitoring during check" `Quick
            test_monitoring_during_check;
        ] );
    ]
