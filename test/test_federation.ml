(* Federation: hierarchical voting across hosts must add nothing and
   lose nothing. A 1-host fleet is bit-identical to the standalone
   orchestrator (property-tested over all six scenarios); version skew
   across hosts never votes; a whole-host outage degrades the verdict
   instead of corrupting the majority; and a coordinated pool-wide
   infection — invisible to the infected host's own vote — is caught by
   the cross-host ballot. *)

module F = Mc_federation
module Topo = F.Topology
module Co = F.Coordinator
module O = Modchecker.Orchestrator
module R = Modchecker.Report
module EC = Modchecker.Exit_code
module Infect = Mc_malware.Infect
module Cloud = Mc_hypervisor.Cloud

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let verdict_eq a b =
  match (a, b) with
  | R.Intact, R.Intact | R.Infected, R.Infected -> true
  | R.Degraded _, R.Degraded _ -> true
  | _ -> false

let one_host_spec ~vms ~seed =
  {
    Topo.default_spec with
    Topo.regions = 1;
    racks_per_region = 1;
    hosts_per_rack = 1;
    vms_per_host = vms;
    seed;
  }

(* The six detection scenarios, staged identically on any cloud. Each
   returns the module whose integrity the infection disturbs. *)
let scenarios =
  [
    ( "opcode",
      fun cloud ->
        (match Infect.single_opcode_replacement cloud ~vm:1 with
        | Ok _ -> ()
        | Error e -> failwith e);
        "hal.dll" );
    ( "inline-hook",
      fun cloud ->
        (match Infect.inline_hook cloud ~vm:2 with
        | Ok _ -> ()
        | Error e -> failwith e);
        "hal.dll" );
    ( "stub",
      fun cloud ->
        (match Infect.stub_modification cloud ~vm:3 with
        | Ok _ -> ()
        | Error e -> failwith e);
        "hello.sys" );
    ( "dll-injection",
      fun cloud ->
        (match Infect.dll_injection cloud ~vm:0 with
        | Ok _ -> ()
        | Error e -> failwith e);
        "dummy.sys" );
    ( "dkom-hide",
      fun cloud ->
        (match Infect.hide_module cloud ~vm:2 ~module_name:"http.sys" with
        | Ok _ -> ()
        | Error e -> failwith e);
        "http.sys" );
    ( "pointer-hook",
      fun cloud ->
        (match Infect.pointer_hook cloud ~vm:1 with
        | Ok _ -> ()
        | Error e -> failwith e);
        "hal.dll" );
  ]

(* Satellite: a 1-host federation is the standalone checker, bit for
   bit — same deviants, same missing set, same verdict class, same exit
   codes, for every scenario and any seed. *)
let prop_single_host_parity =
  let gen = QCheck.Gen.(pair (int_range 0 5) (int_range 0 1000)) in
  QCheck.Test.make ~count:12
    ~name:"1-host federation == standalone orchestrator"
    (QCheck.make gen)
    (fun (which, seed_i) ->
      let vms = 4 in
      let seed = Int64.of_int (7000 + (seed_i * 13)) in
      let _, stage = List.nth scenarios which in
      let standalone = Cloud.create ~vms ~seed () in
      let topo = Topo.create ~spec:(one_host_spec ~vms ~seed) () in
      let fleet_cloud = (Topo.host topo 0).F.Host.cloud in
      let module_name = stage standalone in
      let module_name' = stage fleet_cloud in
      assert (String.equal module_name module_name');
      (* Survey parity. *)
      let s = O.survey standalone ~module_name in
      let r = Co.survey topo ~module_name in
      let fleet_deviants = List.map snd r.Co.fb_deviant_vms in
      let fleet_missing = List.map snd r.Co.fb_missing_vms in
      let ok_survey =
        fleet_deviants = s.R.deviant_vms
        && fleet_missing = s.R.missing_on
        && verdict_eq r.Co.fb_verdict
             (if s.R.deviant_vms <> [] || s.R.missing_on <> [] then R.Infected
              else s.R.s_verdict)
        && Co.exit_code r = EC.of_survey s
      in
      (* List-walk parity. *)
      let lc = O.survey_module_lists standalone in
      let fl = Co.survey_lists topo in
      let ok_lists =
        Co.exit_code_lists fl = EC.of_lists lc
        && List.length fl.Co.fl_per_host = 1
        &&
        match (List.hd fl.Co.fl_per_host).Co.hl_outcome with
        | Ok lc' ->
            List.length lc'.O.lc_discrepancies
            = List.length lc.O.lc_discrepancies
        | Error _ -> false
      in
      (* Targeted-check parity, routed to the host. *)
      let target = 1 in
      let ok_check =
        match
          ( O.check_module standalone ~target_vm:target ~module_name,
            Co.check topo ~host:0 ~vm:target ~module_name )
        with
        | Ok a, Ok b ->
            verdict_eq a.O.report.R.verdict b.O.report.R.verdict
            && a.O.report.R.flagged_artifacts = b.O.report.R.flagged_artifacts
            && a.O.report.R.matches = b.O.report.R.matches
            && a.O.report.R.total = b.O.report.R.total
        | Error _, Error _ -> true
        | _ -> false
      in
      ok_survey && ok_lists && ok_check)

(* Satellite regression: a legitimate version split across hosts is not
   an infection. Two cohorts, zero deviants, exit 0. *)
let test_version_skew_clean () =
  let spec =
    {
      Topo.default_spec with
      Topo.hosts_per_rack = 4;
      vms_per_host = 3;
      patch_levels = [ 1; 2 ];
      seed = 41L;
    }
  in
  let topo = Topo.create ~spec () in
  let r = Co.survey topo ~module_name:"ndis.sys" in
  check "clean skewed fleet is intact" true (r.Co.fb_verdict = R.Intact);
  check_int "two cohorts" 2 (List.length r.Co.fb_cohorts);
  check "no deviant hosts" true (r.Co.fb_deviant_hosts = []);
  check "no deviant VMs" true (r.Co.fb_deviant_vms = []);
  check_int "all hosts responded" 4 r.Co.fb_hosts_responded;
  check_int "exit 0" EC.ok (Co.exit_code r);
  List.iter
    (fun (c : Co.cohort) ->
      check_int
        (Printf.sprintf "cohort %d agrees" c.Co.ch_level)
        1
        (List.length c.Co.ch_agreement))
    r.Co.fb_cohorts

(* Acceptance: >= 8 hosts, three kernel builds cycled across them, fault
   injection armed — all six scenarios detected with their exact deviant
   sets and zero false positives from version skew. *)
let test_acceptance_heterogeneous_fleet () =
  let spec =
    {
      Topo.default_spec with
      Topo.hosts_per_rack = 4;
      racks_per_region = 2;
      vms_per_host = 3;
      patch_levels = [ 1; 2; 3 ];
      seed = 2012L;
      fault_spec =
        (match Mc_memsim.Faultplan.of_string "transient=0.01,seed=5" with
        | Ok s -> Some s
        | Error e -> failwith e);
    }
  in
  let topo = Topo.create ~spec () in
  check_int "eight hosts" 8 (Topo.host_count topo);
  check_int "three builds" 3 (List.length (Topo.distinct_levels topo));
  let cloud_of h = (Topo.host topo h).F.Host.cloud in
  let stage name = function
    | Ok (_ : Infect.infection) -> ()
    | Error e -> Alcotest.failf "staging %s: %s" name e
  in
  (* E1, E2, X-PTR all disturb hal.dll, on three different hosts (and
     three different builds). *)
  stage "opcode" (Infect.single_opcode_replacement (cloud_of 0) ~vm:1);
  stage "inline hook" (Infect.inline_hook (cloud_of 1) ~vm:0);
  stage "pointer hook" (Infect.pointer_hook (cloud_of 5) ~vm:2);
  (* E3 and E4 each bring their own driver. *)
  stage "stub" (Infect.stub_modification (cloud_of 2) ~vm:1);
  stage "dll injection" (Infect.dll_injection (cloud_of 3) ~vm:2);
  (* X-DKOM hides a module on one VM of host 4. *)
  stage "dkom" (Infect.hide_module (cloud_of 4) ~vm:1 ~module_name:"http.sys");
  let survey m = Co.survey topo ~module_name:m in
  let expect name m deviants missing =
    let r = survey m in
    Alcotest.(check (list (pair int int)))
      (name ^ ": deviant (host, vm) set") deviants r.Co.fb_deviant_vms;
    Alcotest.(check (list (pair int int)))
      (name ^ ": missing (host, vm) set") missing r.Co.fb_missing_vms;
    check (name ^ ": verdict infected") true (r.Co.fb_verdict = R.Infected);
    check_int (name ^ ": exit 2") EC.infected (Co.exit_code r);
    check (name ^ ": no skew deviant hosts") true (r.Co.fb_deviant_hosts = [])
  in
  expect "hal.dll" "hal.dll" [ (0, 1); (1, 0); (5, 2) ] [];
  expect "hello.sys" "hello.sys" [ (2, 1) ] [];
  expect "dummy.sys" "dummy.sys" [ (3, 2) ] [];
  (* The hidden module is a list-walk signal, host-local. *)
  let fl = Co.survey_lists topo in
  check "dkom detected" true (fl.Co.fl_verdict = R.Infected);
  let disc_hosts =
    List.filter_map
      (fun (h : Co.host_lists) ->
        match h.Co.hl_outcome with
        | Ok lc when lc.O.lc_discrepancies <> [] -> Some h.Co.hl_host
        | _ -> None)
      fl.Co.fl_per_host
  in
  (* Host 3's injected inject.dll shows up in its load list too — a
     genuine signal, not a false positive. No clean host is flagged. *)
  check "list discrepancies only on hosts 3 and 4" true
    (disc_hosts = [ 3; 4 ]);
  (* A module nobody touched stays clean across all three builds. *)
  let clean = survey "tcpip.sys" in
  check "tcpip.sys intact" true (clean.Co.fb_verdict = R.Intact);
  check_int "tcpip.sys: three cohorts" 3 (List.length clean.Co.fb_cohorts);
  check "tcpip.sys: zero skew false positives" true
    (clean.Co.fb_deviant_vms = [] && clean.Co.fb_deviant_hosts = [])

(* Satellite regression: a whole-host outage must degrade the verdict
   (exit 3) rather than silently shrink the electorate — even while a
   real infection is in view. *)
let test_host_outage_degrades () =
  let spec =
    {
      Topo.default_spec with
      Topo.hosts_per_rack = 3;
      vms_per_host = 4;
      seed = 99L;
    }
  in
  let topo = Topo.create ~spec () in
  (match Infect.inline_hook (Topo.host topo 0).F.Host.cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "staging hook: %s" e);
  Topo.set_host_down topo 2;
  let r = Co.survey topo ~module_name:"hal.dll" in
  check "verdict degraded" true
    (match r.Co.fb_verdict with R.Degraded _ -> true | _ -> false);
  check_int "exit 3 outranks the infection" EC.degraded (Co.exit_code r);
  check "the infection is still reported" true
    (List.mem (0, 1) r.Co.fb_deviant_vms);
  check_int "one unreachable host" 1 (List.length r.Co.fb_unreachable_hosts);
  check_int "host 2 is the unreachable one" 2
    (fst (List.hd r.Co.fb_unreachable_hosts));
  check_int "responded" 2 r.Co.fb_hosts_responded;
  (* Bring it back: the fleet verdict recovers to plain Infected. *)
  Topo.set_host_up topo 2;
  let r' = Co.survey topo ~module_name:"hal.dll" in
  check "recovered to infected" true (r'.Co.fb_verdict = R.Infected);
  check_int "exit 2 after recovery" EC.infected (Co.exit_code r')

(* The layer the paper's single pool cannot have: every VM of one host
   infected identically. The host's own vote sees a unanimous (wrong)
   pool; only the cross-host ballot can out it. *)
let test_coordinated_host_infection () =
  let spec =
    {
      Topo.default_spec with
      Topo.hosts_per_rack = 3;
      vms_per_host = 3;
      seed = 4242L;
    }
  in
  let topo = Topo.create ~spec () in
  let victim = (Topo.host topo 1).F.Host.cloud in
  for vm = 0 to Cloud.vm_count victim - 1 do
    match Infect.inline_hook victim ~vm with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "hooking vm %d: %s" vm e
  done;
  let r = Co.survey topo ~module_name:"hal.dll" in
  check "fleet verdict infected" true (r.Co.fb_verdict = R.Infected);
  let host1_vms_deviant =
    List.filter (fun (h, _) -> h = 1) r.Co.fb_deviant_vms
  in
  check "host 1 is outed (by ballot or by its own split)" true
    (r.Co.fb_deviant_hosts = [ 1 ] || List.length host1_vms_deviant = 3);
  check "hosts 0 and 2 are clean" true
    (List.for_all (fun (h, _) -> h = 1) r.Co.fb_deviant_vms
    && not (List.mem 0 r.Co.fb_deviant_hosts)
    && not (List.mem 2 r.Co.fb_deviant_hosts));
  check_int "exit 2" EC.infected (Co.exit_code r)

(* A slow rack pushing hosts past the deadline is an availability fault,
   not an integrity one. *)
let test_slow_rack_deadline () =
  let spec =
    {
      Topo.default_spec with
      Topo.racks_per_region = 2;
      hosts_per_rack = 2;
      vms_per_host = 3;
      slow_racks = [ (1, 50.0) ];
      seed = 7L;
    }
  in
  let topo = Topo.create ~spec () in
  (* A deadline generous for nominal hosts, hopeless at 50x. *)
  let nominal =
    let r =
      Co.survey
        ~config:{ Co.default_config with Co.host_deadline_s = None }
        topo ~module_name:"ndis.sys"
    in
    r.Co.fb_critical_path_s /. 50.0
  in
  let config =
    { Co.default_config with Co.host_deadline_s = Some (nominal *. 25.0) }
  in
  let r = Co.survey ~config topo ~module_name:"ndis.sys" in
  check "slow rack degrades" true
    (match r.Co.fb_verdict with R.Degraded _ -> true | _ -> false);
  check_int "both slow hosts missed" 2 (List.length r.Co.fb_unreachable_hosts);
  check "the slow hosts are rack 1's" true
    (List.map fst r.Co.fb_unreachable_hosts = [ 2; 3 ]);
  check "no integrity signal" true (r.Co.fb_deviant_vms = [])

(* The federation simtest: generated campaigns of host outages,
   coordinated infections, and version skew must agree with the fleet
   oracle sweep after sweep, deterministically. *)
let test_fedsim_campaigns () =
  let module FS = Mc_simtest.Fedsim in
  let r = FS.run_campaigns ~seed:900L ~steps:10 ~campaigns:3 () in
  check_int "no oracle disagreements" 0 (List.length r.FS.fc_failures);
  check "sweeps actually ran" true (r.FS.fc_sweeps > 0);
  let r' = FS.run_campaigns ~seed:900L ~steps:10 ~campaigns:3 () in
  check "byte-identical transcript on replay" true
    (String.equal r.FS.fc_transcript r'.FS.fc_transcript)

(* JSON/table renderings stay total and tagged. *)
let test_renderings () =
  let topo = Topo.create ~spec:(one_host_spec ~vms:3 ~seed:11L) () in
  let r = Co.survey topo ~module_name:"hal.dll" in
  let json = Mc_util.Json.to_string (Co.to_json r) in
  check "json schema tag" true (contains json "modchecker/federation@1");
  let table = Co.to_table topo r in
  check "table names host0" true (contains table "host0");
  check "summary prefixed" true (contains (Co.summary r) "FLEET")

let () =
  Alcotest.run "federation"
    [
      ( "parity",
        List.map QCheck_alcotest.to_alcotest [ prop_single_host_parity ] );
      ( "voting",
        [
          Alcotest.test_case "version skew clean" `Quick
            test_version_skew_clean;
          Alcotest.test_case "coordinated host infection" `Quick
            test_coordinated_host_infection;
        ] );
      ( "faults",
        [
          Alcotest.test_case "host outage degrades" `Quick
            test_host_outage_degrades;
          Alcotest.test_case "slow rack deadline" `Quick
            test_slow_rack_deadline;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "heterogeneous fleet, six scenarios" `Quick
            test_acceptance_heterogeneous_fleet;
        ] );
      ( "fan-out",
        [
          Alcotest.test_case "renderings" `Quick test_renderings;
        ] );
      ( "simtest",
        [
          Alcotest.test_case "fedsim campaigns" `Quick test_fedsim_campaigns;
        ] );
    ]
