(* Tests for the fleet health assessment. *)

module Fleet = Modchecker.Pool_health
module Cloud = Mc_hypervisor.Cloud
module Infect = Mc_malware.Infect
module Orchestrator = Modchecker.Orchestrator

let check = Alcotest.check

let test_clean_fleet () =
  let cloud = Cloud.create ~vms:4 ~seed:701L () in
  let r = Fleet.assess cloud in
  Alcotest.(check bool) "clean" true r.Fleet.fr_clean;
  check Alcotest.int "standard catalog covered"
    (List.length Mc_pe.Catalog.standard_modules)
    (List.length r.Fleet.fr_modules);
  check Alcotest.(list (pair int int)) "nobody suspected" [] r.Fleet.fr_suspicion;
  Alcotest.(check bool) "summary says clean" true
    (String.length (Fleet.summary r) > 0 && r.Fleet.fr_clean);
  List.iter
    (fun s ->
      check Alcotest.int (s.Fleet.ms_module ^ " on all VMs") 4
        s.Fleet.ms_present_on)
    r.Fleet.fr_modules

let test_fleet_finds_hash_deviant () =
  let cloud = Cloud.create ~vms:4 ~seed:702L () in
  (match Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = Fleet.assess cloud in
  Alcotest.(check bool) "not clean" false r.Fleet.fr_clean;
  let hal = List.find (fun s -> s.Fleet.ms_module = "hal.dll") r.Fleet.fr_modules in
  check Alcotest.(list int) "hal deviant on Dom2" [ 1 ] hal.Fleet.ms_deviants;
  check Alcotest.(list (pair int int)) "Dom2 tops suspicion" [ (1, 1) ]
    r.Fleet.fr_suspicion

let test_fleet_finds_hidden_module () =
  let cloud = Cloud.create ~vms:4 ~seed:703L () in
  (match Infect.hide_module cloud ~vm:2 ~module_name:"tcpip.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = Fleet.assess cloud in
  let tcpip =
    List.find (fun s -> s.Fleet.ms_module = "tcpip.sys") r.Fleet.fr_modules
  in
  check Alcotest.(list int) "missing recorded" [ 2 ] tcpip.Fleet.ms_missing;
  Alcotest.(check bool) "not clean" false r.Fleet.fr_clean

let test_fleet_combined_attacks () =
  let cloud = Cloud.create ~vms:5 ~seed:704L () in
  (match Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Infect.hide_module cloud ~vm:1 ~module_name:"http.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r =
    Fleet.assess
      ~config:
        Orchestrator.Config.(default |> with_strategy Orchestrator.Canonical)
      cloud
  in
  (* Two independent findings implicate the same VM. *)
  match r.Fleet.fr_suspicion with
  | (1, 2) :: _ -> ()
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected Dom2 with 2 findings, got [%s]"
           (String.concat "; "
              (List.map (fun (v, n) -> Printf.sprintf "(%d,%d)" v n) other)))

let test_fleet_partial_module_ok () =
  (* A driver loaded on a minority of VMs is surveyed among its holders
     but nobody is blamed for not having it. *)
  let cloud = Cloud.create ~vms:5 ~seed:705L () in
  let file = (Mc_pe.Catalog.image "hello.sys").Mc_pe.Catalog.file in
  List.iter
    (fun vm ->
      Infect.write_module_file (Cloud.vm cloud vm) ~name:"hello.sys" file;
      match Infect.load_driver (Cloud.vm cloud vm) ~name:"hello.sys" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Mc_winkernel.Kernel.error_to_string e))
    [ 0; 3 ];
  let r = Fleet.assess cloud in
  let hello =
    List.find (fun s -> s.Fleet.ms_module = "hello.sys") r.Fleet.fr_modules
  in
  check Alcotest.int "present on two" 2 hello.Fleet.ms_present_on;
  check Alcotest.(list int) "nobody blamed" [] hello.Fleet.ms_missing;
  Alcotest.(check bool) "fleet still clean" true r.Fleet.fr_clean

let test_heterogeneous_pool_clean () =
  (* Two patch levels in one pool: the version split is legitimate, so a
     clean mixed pool must assess clean — cohort voting, no deviants. *)
  let cloud = Cloud.create ~vms:5 ~seed:706L ~patch_levels:[ 1; 1; 1; 2; 2 ] () in
  let r = Fleet.assess cloud in
  Alcotest.(check bool) "mixed clean pool is clean" true r.Fleet.fr_clean;
  check
    Alcotest.(list (pair int int))
    "no skew suspicion" [] r.Fleet.fr_suspicion

let test_heterogeneous_missing_heuristic () =
  (* Regression for the whole-pool majority rule: hello.sys deployed to
     the level-1 cohort only. 3 holders out of 5 VMs was a pool-wide
     majority under the old rule, which blamed the level-2 VMs for not
     having it. The cohort rule blames only a minority *within its own
     cohort* — here, nobody. *)
  let cloud = Cloud.create ~vms:5 ~seed:707L ~patch_levels:[ 1; 1; 1; 2; 2 ] () in
  let file = (Mc_pe.Catalog.image "hello.sys").Mc_pe.Catalog.file in
  List.iter
    (fun vm ->
      Infect.write_module_file (Cloud.vm cloud vm) ~name:"hello.sys" file;
      match Infect.load_driver (Cloud.vm cloud vm) ~name:"hello.sys" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Mc_winkernel.Kernel.error_to_string e))
    [ 0; 1; 2 ];
  let r = Fleet.assess cloud in
  let hello =
    List.find (fun s -> s.Fleet.ms_module = "hello.sys") r.Fleet.fr_modules
  in
  check Alcotest.(list int) "other cohort not blamed" [] hello.Fleet.ms_missing;
  Alcotest.(check bool) "still clean" true r.Fleet.fr_clean;
  (* But inside the deployed cohort the majority rule still bites: hide
     it on one level-1 VM and that VM is implicated. *)
  (match Infect.hide_module cloud ~vm:1 ~module_name:"hello.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r' = Fleet.assess cloud in
  let hello' =
    List.find (fun s -> s.Fleet.ms_module = "hello.sys") r'.Fleet.fr_modules
  in
  check Alcotest.(list int) "cohort minority blamed" [ 1 ]
    hello'.Fleet.ms_missing;
  Alcotest.(check bool) "not clean" false r'.Fleet.fr_clean

let () =
  Alcotest.run "fleet"
    [
      ( "assess",
        [
          Alcotest.test_case "clean" `Quick test_clean_fleet;
          Alcotest.test_case "hash deviant" `Quick test_fleet_finds_hash_deviant;
          Alcotest.test_case "hidden module" `Quick
            test_fleet_finds_hidden_module;
          Alcotest.test_case "combined attacks" `Quick
            test_fleet_combined_attacks;
          Alcotest.test_case "partial module" `Quick
            test_fleet_partial_module_ok;
        ] );
      ( "cohorts",
        [
          Alcotest.test_case "heterogeneous clean" `Quick
            test_heterogeneous_pool_clean;
          Alcotest.test_case "missing heuristic" `Quick
            test_heterogeneous_missing_heuristic;
        ] );
    ]
