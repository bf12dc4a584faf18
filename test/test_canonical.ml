(* Survey parity: the paper's pairwise vote (Algorithm 2 on every pair)
   and the Merkle-print survey (hash each copy once, escalate any
   in-cohort disagreement by print class) reach the same deviants. The
   regressions below were found by simtest against the former t-way
   canonical vote; they stay as parity cases for the one vote path. *)

module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter

let check = Alcotest.check

let pairwise () = Orchestrator.Config.default

(* A fresh cache per survey, so every print is built, not probed. *)
let prints () =
  Orchestrator.Config.(
    default |> with_incremental (Orchestrator.create_incremental ()))

let deviants config cloud name =
  (Orchestrator.survey ~config:(config ()) cloud ~module_name:name)
    .Report.deviant_vms

let test_survey_agree_clean () =
  let cloud = Cloud.create ~vms:5 ~seed:410L () in
  List.iter
    (fun name ->
      check
        Alcotest.(list int)
        (name ^ " same verdicts")
        (deviants pairwise cloud name)
        (deviants prints cloud name))
    [ "hal.dll"; "http.sys"; "hello_missing_everywhere" ]

let test_survey_agree_infected () =
  let cloud = Cloud.create ~vms:5 ~seed:411L () in
  (match Mc_malware.Infect.inline_hook cloud ~vm:2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.(list int) "pairwise finds Dom3" [ 2 ]
    (deviants pairwise cloud "hal.dll");
  check Alcotest.(list int) "prints find Dom3" [ 2 ]
    (deviants prints cloud "hal.dll")

let test_survey_agree_dll_inject () =
  let cloud = Cloud.create ~vms:4 ~seed:412L () in
  (match Mc_malware.Infect.dll_injection cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* The infected copy has different section sizes: no golden table fits
     it, so its print hashes those sections raw and it still convicts. *)
  check Alcotest.(list int) "pairwise" [ 1 ]
    (deviants pairwise cloud "dummy.sys");
  check Alcotest.(list int) "prints" [ 1 ]
    (deviants prints cloud "dummy.sys")

let test_survey_after_reboot_base_collision () =
  (* Regression (found by simtest, seed 132): with this cloud seed,
     rebooting VM 1 re-randomizes hal.dll onto the base VMs 3 and 4
     already share. Three identical-base clean copies then outvoted the
     rest at VM 0's cave bytes and the t-way canonical vote framed VM 2. *)
  let cloud = Cloud.create ~vms:5 ~cores:4 ~seed:508329946526276438L () in
  (match Mc_malware.Infect.pointer_hook cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Cloud.reboot_vm cloud 1;
  check Alcotest.(list int) "only the hooked VM deviates" [ 0 ]
    (deviants prints cloud "hal.dll");
  check Alcotest.(list int) "pairwise agrees" [ 0 ]
    (deviants pairwise cloud "hal.dll")

let test_survey_shifted_code_coincidence () =
  (* Regression (found by simtest, seed 2796): the opcode patch grows an
     instruction, shifting ~100 bytes of code on the infected VM. While
     scanning that divergence, a misaligned word coincidentally
     rva-matched one clean copy and the 2-of-3 "majority" rewrite split
     the two clean VMs apart ([0,1,2] instead of [0]). *)
  let cloud = Cloud.create ~vms:3 ~cores:4 ~seed:(-6576296963831931136L) () in
  Cloud.reboot_vm cloud 0;
  Cloud.reboot_vm cloud 2;
  (match
     Mc_malware.Infect.single_opcode_replacement ~module_name:"atapi.sys"
       ~func:"devicemgr_24" cloud ~vm:0
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.(list int) "prints flag only the patched VM" [ 0 ]
    (deviants prints cloud "atapi.sys");
  check Alcotest.(list int) "pairwise agrees" [ 0 ]
    (deviants pairwise cloud "atapi.sys")

let test_survey_coordinated_race_overlay () =
  (* Cloud-level regression for the same bug: a coordinated two-VM
     opcode patch (the instruction grows, shifting ~100 bytes of code
     over 11 real slots) must leave prints and pairwise agreeing on
     exactly the infected pair. *)
  let cloud = Cloud.create ~vms:5 ~cores:6 ~seed:(-4789845029019759313L) () in
  let m =
    match
      Mc_malware.Strategy.race ~module_name:"disk.sys" ~func:"devhal_114"
        cloud ~vms:[ 0; 1 ] ~start:1.0
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  (match Mc_malware.Strategy.tick m ~now:2.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.(list int) "prints flag the coordinated pair" [ 0; 1 ]
    (deviants prints cloud "disk.sys");
  check Alcotest.(list int) "pairwise agrees" [ 0; 1 ]
    (deviants pairwise cloud "disk.sys")

let test_prints_cheaper () =
  let cloud = Cloud.create ~vms:8 ~seed:413L () in
  let cost config =
    let meter = Meter.create () in
    ignore
      (Orchestrator.survey ~config:(config ()) ~meter cloud
         ~module_name:"http.sys");
    (Meter.get meter Meter.Checker).Meter.bytes_hashed
  in
  let pairwise = cost pairwise in
  let prints = cost prints in
  Alcotest.(check bool)
    (Printf.sprintf "prints hash less (%d < %d)" prints pairwise)
    true
    (prints * 3 < pairwise)

let () =
  Alcotest.run "canonical"
    [
      ( "survey",
        [
          Alcotest.test_case "agree on clean" `Quick test_survey_agree_clean;
          Alcotest.test_case "agree on infected" `Quick
            test_survey_agree_infected;
          Alcotest.test_case "agree on resize" `Quick
            test_survey_agree_dll_inject;
          Alcotest.test_case "reboot base collision" `Quick
            test_survey_after_reboot_base_collision;
          Alcotest.test_case "shifted-code coincidence" `Quick
            test_survey_shifted_code_coincidence;
          Alcotest.test_case "coordinated race overlay" `Quick
            test_survey_coordinated_race_overlay;
          Alcotest.test_case "cheaper" `Quick test_prints_cheaper;
        ] );
    ]
