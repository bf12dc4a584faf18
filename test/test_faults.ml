(* Fault injection: hostile or corrupted guest state must degrade
   gracefully, never crash Dom0 tooling. Also covers the OS-variant
   profile machinery. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Layout = Mc_winkernel.Layout
module Ldr = Mc_winkernel.Ldr
module As = Mc_memsim.Addr_space
module Vmi = Mc_vmi.Vmi
module Symbols = Mc_vmi.Symbols
module Searcher = Modchecker.Searcher
module Orchestrator = Modchecker.Orchestrator
module Le = Mc_util.Le

let check = Alcotest.check

let l_flink = Layout.Ldr_entry.in_load_order_links_flink

(* --- OS variants --------------------------------------------------------- *)

let test_sp3_cloud_works () =
  let cloud = Cloud.create ~vms:3 ~seed:601L ~os_variant:Layout.Xp_sp3 () in
  (match
     Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll"
   with
  | Ok o ->
      Alcotest.(check bool) "sp3 pool checks clean" true
        o.report.Modchecker.Report.majority_ok
  | Error e -> Alcotest.fail e);
  (* And detection still works end to end. *)
  (match Mc_malware.Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Orchestrator.check_module cloud ~target_vm:1 ~module_name:"hal.dll" with
  | Ok o ->
      Alcotest.(check bool) "sp3 detection" false
        o.report.Modchecker.Report.majority_ok
  | Error e -> Alcotest.fail e

let test_wrong_profile_reads_nothing () =
  (* An SP2 guest introspected with the SP3 profile: the symbol address
     reads zeros, so the walk is empty — no crash, no modules. *)
  let cloud = Cloud.create ~vms:1 ~seed:602L () in
  let vmi = Vmi.init (Cloud.vm cloud 0) Symbols.windows_xp_sp3 in
  check Alcotest.int "empty module list" 0
    (List.length (Searcher.list_modules vmi));
  Alcotest.(check bool) "find returns None" true
    (Searcher.find_module vmi ~name:"hal.dll" = None)

let test_profile_of_variant () =
  check Alcotest.string "sp2" "WinXPSP2x86"
    (Symbols.of_variant Layout.Xp_sp2).Symbols.os_name;
  check Alcotest.string "sp3" "WinXPSP3x86"
    (Symbols.of_variant Layout.Xp_sp3).Symbols.os_name;
  Alcotest.(check bool) "different head addresses" true
    (Layout.list_head_of_variant Layout.Xp_sp2
    <> Layout.list_head_of_variant Layout.Xp_sp3)

let test_kernel_variant_recorded () =
  let cloud = Cloud.create ~vms:1 ~seed:603L ~os_variant:Layout.Xp_sp3 () in
  let kernel = Dom.kernel_exn (Cloud.vm cloud 0) in
  Alcotest.(check bool) "variant stored" true
    (Kernel.os_variant kernel = Layout.Xp_sp3);
  check Alcotest.int "list head per variant" Layout.ps_loaded_module_list_sp3
    (Kernel.list_head kernel)

(* --- corrupted guest structures ------------------------------------------ *)

let fresh () =
  let cloud = Cloud.create ~vms:1 ~seed:604L () in
  let dom = Cloud.vm cloud 0 in
  (cloud, dom, Dom.kernel_exn dom)

let test_cyclic_module_list () =
  let _, dom, kernel = fresh () in
  (* Point the second entry's Flink back at the first: an infinite loop
     for a naive walker. *)
  let aspace = Kernel.aspace kernel in
  let head = Kernel.list_head kernel in
  let first = As.read_u32_int aspace head in
  let second = As.read_u32_int aspace (first + l_flink) in
  As.write_u32_int aspace (second + l_flink) first;
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  let listed = Searcher.list_modules vmi in
  (* Bounded: the cycle guard stops at the budget. *)
  Alcotest.(check bool) "walk terminates" true (List.length listed <= 4096)

let test_null_flink () =
  let _, dom, kernel = fresh () in
  let aspace = Kernel.aspace kernel in
  let head = Kernel.list_head kernel in
  let first = As.read_u32_int aspace head in
  As.write_u32_int aspace (first + l_flink) 0;
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  check Alcotest.int "walk stops at the null link" 1
    (List.length (Searcher.list_modules vmi))

let test_flink_to_unmapped_memory () =
  let _, dom, kernel = fresh () in
  let aspace = Kernel.aspace kernel in
  let head = Kernel.list_head kernel in
  let first = As.read_u32_int aspace head in
  As.write_u32_int aspace (first + l_flink) 0xDEAD0000;
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  check Alcotest.int "walk stops at the bad pointer" 1
    (List.length (Searcher.list_modules vmi))

let test_absurd_size_of_image () =
  let _, dom, kernel = fresh () in
  let aspace = Kernel.aspace kernel in
  let entry = Option.get (Kernel.find_module kernel "hal.dll") in
  As.write_u32_int aspace
    (entry.Ldr.entry_va + Layout.Ldr_entry.size_of_image)
    0x7FFF0000;
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  (* fetch refuses to allocate 2 GB and reports the module as unavailable
     rather than raising. *)
  Alcotest.(check bool) "fetch degrades to None" true
    (Searcher.fetch vmi ~name:"hal.dll" = None)

let test_corrupt_headers_in_guest () =
  let cloud = Cloud.create ~vms:4 ~seed:605L () in
  let kernel = Dom.kernel_exn (Cloud.vm cloud 1) in
  let entry = Option.get (Kernel.find_module kernel "hal.dll") in
  (* Smash the in-memory MZ magic on one VM. *)
  As.write_u32_int (Kernel.aspace kernel) entry.Ldr.dll_base 0;
  (* The victim cannot even be parsed: checking it from Dom0 errors... *)
  (match Orchestrator.check_module cloud ~target_vm:1 ~module_name:"hal.dll" with
  | Error _ -> ()
  | Ok o ->
      (* ...or (depending on viewpoint) it simply fails all comparisons. *)
      Alcotest.(check bool) "if it parses it must not pass" false
        o.report.Modchecker.Report.majority_ok);
  (* A clean VM checking against the pool still works: the corrupt peer
     costs one of three comparisons. *)
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Ok o ->
      Alcotest.(check bool) "clean VM still votes" true
        o.report.Modchecker.Report.majority_ok;
      check Alcotest.int "one comparison lost" 2
        o.report.Modchecker.Report.matches
  | Error e -> Alcotest.fail e

let test_name_buffer_unmapped () =
  let _, dom, kernel = fresh () in
  let aspace = Kernel.aspace kernel in
  let entry = Option.get (Kernel.find_module kernel "http.sys") in
  (* Point BaseDllName.Buffer at unmapped memory. *)
  As.write_u32_int aspace
    (entry.Ldr.entry_va + Layout.Ldr_entry.base_dll_name
   + Layout.Unicode_string.buffer)
    0xDEAD0000;
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  let listed = Searcher.list_modules vmi in
  (* The damaged entry reads with an empty name; the rest are intact. *)
  check Alcotest.int "all entries still listed"
    (List.length Mc_pe.Catalog.standard_modules)
    (List.length listed);
  Alcotest.(check bool) "damaged entry has empty name" true
    (List.exists (fun (i : Searcher.module_info) -> i.mi_name = "") listed)

let test_survey_with_one_corrupt_vm () =
  let cloud = Cloud.create ~vms:4 ~seed:606L () in
  let kernel = Dom.kernel_exn (Cloud.vm cloud 3) in
  let entry = Option.get (Kernel.find_module kernel "http.sys") in
  As.write_u32_int (Kernel.aspace kernel) entry.Ldr.dll_base 0;
  let s = Orchestrator.survey cloud ~module_name:"http.sys" in
  (* The corrupt VM is either missing (parse failure) or deviant. *)
  Alcotest.(check bool) "corrupt VM isolated" true
    (List.mem 3 s.Modchecker.Report.missing_on
    || List.mem 3 s.Modchecker.Report.deviant_vms);
  Alcotest.(check bool) "no clean VM blamed" true
    (List.for_all (fun v -> v = 3) s.Modchecker.Report.deviant_vms)

(* --- injected fault plans: determinism, retries, quorum ------------------ *)

module Faultplan = Mc_memsim.Faultplan
module Report = Modchecker.Report
module Patrol = Modchecker.Patrol

let test_plan_parse_roundtrip () =
  match Faultplan.of_string "transient=0.05,paged=0.01,torn=0.02,seed=7" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      check (Alcotest.float 1e-9) "transient" 0.05 spec.Faultplan.transient_rate;
      check (Alcotest.float 1e-9) "paged" 0.01 spec.Faultplan.paged_out_rate;
      check (Alcotest.float 1e-9) "torn" 0.02 spec.Faultplan.torn_rate;
      check Alcotest.int "seed" 7 spec.Faultplan.fault_seed;
      (match Faultplan.of_string (Faultplan.to_string spec) with
      | Ok spec2 -> Alcotest.(check bool) "roundtrip" true (spec = spec2)
      | Error e -> Alcotest.fail e)

let test_plan_rejects_garbage () =
  let bad s = Alcotest.(check bool) s true
      (Result.is_error (Faultplan.of_string s))
  in
  bad "transient=1.5";
  bad "transient=-0.1";
  bad "bogus=0.1";
  bad "transient=abc"

let test_plan_deterministic () =
  let spec =
    { Faultplan.none with Faultplan.transient_rate = 0.3; fault_seed = 5 }
  in
  let p1 = Faultplan.create ~salt:1 spec in
  let p2 = Faultplan.create ~salt:1 spec in
  let same = ref true and cross_differs = ref false in
  let p3 = Faultplan.create ~salt:2 spec in
  for pfn = 0 to 499 do
    for attempt = 1 to 3 do
      if
        Faultplan.map_outcome p1 ~pfn ~attempt
        <> Faultplan.map_outcome p2 ~pfn ~attempt
      then same := false
    done;
    if
      Faultplan.map_outcome p1 ~pfn ~attempt:1
      <> Faultplan.map_outcome p3 ~pfn ~attempt:1
    then cross_differs := true
  done;
  Alcotest.(check bool) "same salt, same decisions" true !same;
  Alcotest.(check bool) "different salts decorrelate" true !cross_differs

let test_transient_faults_absorbed_by_retries () =
  (* 10% per-attempt transient failures: every read succeeds within the
     retry budget, so the verdict is exactly the fault-free one. *)
  let spec =
    { Faultplan.none with Faultplan.transient_rate = 0.1; fault_seed = 3 }
  in
  let cloud = Cloud.create ~vms:4 ~seed:610L ~fault_spec:spec () in
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "verdict intact" true
        (o.report.Report.verdict = Report.Intact);
      check Alcotest.int "everyone answered" o.report.Report.surveyed
        o.report.Report.responded

let all_paged_out =
  { Faultplan.none with Faultplan.paged_out_rate = 1.0; fault_seed = 1 }

(* Arm a fault plan on a single DomU (the cloud-wide knob sets all). *)
let poison_vm cloud vm =
  let dom = Cloud.vm cloud vm in
  dom.Dom.faults <-
    Some (Faultplan.create ~salt:dom.Dom.dom_id all_paged_out)

let test_unreachable_vm_excluded_from_vote () =
  let cloud = Cloud.create ~vms:5 ~seed:611L () in
  poison_vm cloud 2;
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "still intact" true
        (o.report.Report.verdict = Report.Intact);
      check Alcotest.int "surveyed" 4 o.report.Report.surveyed;
      check Alcotest.int "responded" 3 o.report.Report.responded;
      check Alcotest.int "voted" 3 o.report.Report.voted;
      (match o.report.Report.unreachable with
      | [ (2, reason) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "reason names the fault: %s" reason)
            true
            (String.length reason > 0)
      | _ -> Alcotest.fail "expected exactly Dom3 unreachable")

let test_quorum_loss_degrades_not_infects () =
  (* An infected target with most comparison VMs unreachable: the verdict
     must be Degraded — the availability failure may not be read as (or
     hide behind) an integrity one. *)
  let cloud = Cloud.create ~vms:5 ~seed:612L () in
  (match Mc_malware.Infect.inline_hook cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter (poison_vm cloud) [ 1; 2; 3 ];
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      (match o.report.Report.verdict with
      | Report.Degraded _ -> ()
      | Report.Intact -> Alcotest.fail "1/4 responses may not claim INTACT"
      | Report.Infected ->
          Alcotest.fail "1/4 responses may not claim SUSPICIOUS");
      check Alcotest.int "responded" 1 o.report.Report.responded;
      Alcotest.(check bool) "string verdict says DEGRADED" true
        (String.length (Report.verdict_string o.report) > 0
        && String.sub (Report.verdict_string o.report) 0 8 = "DEGRADED")

let test_survey_quorum_loss () =
  let cloud = Cloud.create ~vms:5 ~seed:613L () in
  List.iter (poison_vm cloud) [ 0; 1; 2; 3 ];
  let s = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.int "unreachable count" 4
    (List.length s.Report.unreachable_on);
  Alcotest.(check bool) "degraded" true
    (match s.Report.s_verdict with Report.Degraded _ -> true | _ -> false);
  (* The unreachable VMs are not reported missing: no answer is not
     evidence of absence. *)
  check Alcotest.(list int) "missing_on empty" [] s.Report.missing_on;
  check Alcotest.(list int) "no deviants" [] s.Report.deviant_vms

let test_patrol_raises_quorum_loss_only () =
  let cloud = Cloud.create ~vms:5 ~seed:614L () in
  (* Infect one VM *and* cripple the pool: patrol must raise the quorum
     alarm and keep every integrity alarm suppressed for that sweep. *)
  (match Mc_malware.Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter (poison_vm cloud) [ 2; 3; 4 ];
  let config =
    { Patrol.default_config with Patrol.watch = [ "hal.dll" ]; interval_s = 30.0 }
  in
  let o = Patrol.run ~config cloud ~until:40.0 in
  Alcotest.(check bool) "alarms raised" true (o.Patrol.alarms <> []);
  List.iter
    (fun a ->
      match a.Patrol.kind with
      | Patrol.Quorum_loss -> ()
      | k ->
          Alcotest.fail
            (Printf.sprintf "unexpected integrity alarm under quorum loss: %s"
               (Patrol.alarm_kind_string k)))
    o.Patrol.alarms

(* --- satellite: loud reloc-catalog fallback ------------------------------ *)

let counter name =
  Mc_telemetry.Metric.counter_value (Mc_telemetry.Registry.counter name)

let test_reloc_fallback_is_loud () =
  (* The catalog synthesizes an image for any name, so break the parse
     path for real: corrupt the cached image of a probe module (smash the
     MZ magic) and ask for the slot tables prints strip with. The old code
     swallowed this silently; now it must still yield no table but warn
     and count. *)
  let built = Mc_pe.Catalog.image "reloc_fallback_probe.sys" in
  Bytes.fill built.Mc_pe.Catalog.file 0 64 '\x00';
  let text =
    { Modchecker.Artifact.kind = Section_data ".text"; data = Bytes.empty;
      sec_rva = 0 }
  in
  let was = Mc_telemetry.Registry.enabled () in
  Mc_telemetry.Registry.set_enabled true;
  let before = counter "digest.reloc_fallbacks" in
  Alcotest.(check bool) "unparsable module yields no slot table" true
    (Orchestrator.print_slot_tables "reloc_fallback_probe.sys" text = None);
  let after = counter "digest.reloc_fallbacks" in
  Mc_telemetry.Registry.set_enabled was;
  Alcotest.(check bool) "fallback counted" true (after > before);
  (* The golden path must not touch the counter. *)
  Mc_telemetry.Registry.set_enabled true;
  let before = counter "digest.reloc_fallbacks" in
  Alcotest.(check bool) "hal.dll has slot tables" true
    (match Orchestrator.print_slot_tables "hal.dll" text with
    | Some t -> Modchecker.Rva.slot_count t > 0
    | None -> false);
  let after = counter "digest.reloc_fallbacks" in
  Mc_telemetry.Registry.set_enabled was;
  check Alcotest.int "no fallback on catalog module" before after

(* --- satellite: absent comparison VMs are visible in the report ---------- *)

let test_hidden_module_on_comparison_vm_reported () =
  let cloud = Cloud.create ~vms:4 ~seed:615L () in
  (* Hide http.sys on a *comparison* VM; the target's report must show
     the absence as a failed comparison, not silently shrink the vote. *)
  (match Mc_malware.Infect.hide_module cloud ~vm:2 ~module_name:"http.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Orchestrator.check_module cloud ~target_vm:0 ~module_name:"http.sys"
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "all three comparisons present" 3
        (List.length o.report.Report.comparisons);
      check Alcotest.int "absence answered, so everyone responded" 3
        o.report.Report.responded;
      check Alcotest.int "two matches" 2 o.report.Report.matches;
      Alcotest.(check bool) "majority still carries the target" true
        (o.report.Report.verdict = Report.Intact);
      let absent_cmp =
        List.find_opt
          (fun c -> c.Report.other_vm = 2)
          o.report.Report.comparisons
      in
      (match absent_cmp with
      | None -> Alcotest.fail "Dom3's comparison missing from the report"
      | Some c ->
          Alcotest.(check bool) "its comparison failed" false
            c.Report.result.Modchecker.Checker.all_match;
          Alcotest.(check bool) "digests say (absent)" true
            (List.for_all
               (fun v -> v.Modchecker.Checker.av_digest2 = "(absent)")
               c.Report.result.Modchecker.Checker.verdicts))

(* --- deterministic bounds on every path ------------------------------------ *)

(* A per-VM task runs to completion: nothing but deterministic bounds (the
   LDR walk budget, the copy cap, bounded retries) limits it, so a guest
   that forges a walk or a copy size must get the same answer on every
   path, and that answer may cost only the forger its vote. *)

let bounds_vms = 6
let forged_size_vm = 1
let cyclic_vm = 4

let forge_size_of_image cloud vm =
  let kernel = Dom.kernel_exn (Cloud.vm cloud vm) in
  let entry = Option.get (Kernel.find_module kernel "hal.dll") in
  As.write_u32_int (Kernel.aspace kernel)
    (entry.Ldr.entry_va + Layout.Ldr_entry.size_of_image)
    0x7FFF0000

(* The first entry (ntoskrnl.exe) links to itself: the walk spins on it
   until the budget runs out and never reaches hal.dll, the second. *)
let forge_cycle cloud vm =
  let kernel = Dom.kernel_exn (Cloud.vm cloud vm) in
  let aspace = Kernel.aspace kernel in
  let first = As.read_u32_int aspace (Kernel.list_head kernel) in
  As.write_u32_int aspace (first + l_flink) first

let bounds_pool ~forged =
  let cloud = Cloud.create ~vms:bounds_vms ~seed:611L () in
  if forged then begin
    forge_size_of_image cloud forged_size_vm;
    forge_cycle cloud cyclic_vm
  end;
  cloud

(* One path's answers: hal.dll checked on every VM, then surveyed. *)
type answers = {
  checks : (Report.module_report, string) result list;
  survey : Report.survey;
}

let orchestrator_answers ~config cloud =
  {
    checks =
      List.init bounds_vms (fun vm ->
          Result.map
            (fun o -> o.Orchestrator.report)
            (Orchestrator.check_module ~config cloud ~target_vm:vm
               ~module_name:"hal.dll"));
    survey = Orchestrator.survey ~config cloud ~module_name:"hal.dll";
  }

let engine_answers cloud =
  let engine = Mc_engine.create ~shards:2 cloud in
  let run request = (Mc_engine.run engine request).Mc_engine.r_outcome in
  let a =
    {
      checks =
        List.init bounds_vms (fun vm ->
            match run (Mc_engine.Check { vm; module_name = "hal.dll" }) with
            | Mc_engine.Checked r -> Result.map (fun o -> o.Orchestrator.report) r
            | _ -> Alcotest.fail "engine returned a non-check outcome");
      survey =
        (match run (Mc_engine.Survey { module_name = "hal.dll" }) with
        | Mc_engine.Surveyed s -> s
        | _ -> Alcotest.fail "engine returned a non-survey outcome");
    }
  in
  Mc_engine.drain engine;
  a

(* Reports compare as the JSON a caller would read. *)
let check_answers label expected got =
  let check_json = function
    | Ok r -> Mc_util.Json.to_string (Report.to_json r)
    | Error e -> "error: " ^ e
  in
  let survey_json s = Mc_util.Json.to_string (Report.survey_to_json s) in
  check
    Alcotest.(list string)
    (label ^ ": checks")
    (List.map check_json expected.checks)
    (List.map check_json got.checks);
  check Alcotest.string (label ^ ": survey") (survey_json expected.survey)
    (survey_json got.survey)

(* What the print path must share with the full path: verdicts, not
   report bytes (a fast-path check carries no per-artifact evidence). *)
let check_verdict = function
  | Ok r -> Report.verdict_key r.Report.verdict
  | Error e -> "error: " ^ e

let survey_key (s : Report.survey) =
  ( Report.verdict_key s.Report.s_verdict,
    s.Report.deviant_vms,
    s.Report.missing_on,
    List.map fst s.Report.unreachable_on )

let test_bounds_hold_on_every_path () =
  let cloud = bounds_pool ~forged:true in
  let seq = Orchestrator.Config.default in
  let inc config =
    Orchestrator.Config.with_incremental (Orchestrator.create_incremental ())
      config
  in
  Mc_parallel.Pool.with_pool 2 @@ fun pool ->
  let par = Orchestrator.Config.with_mode (Orchestrator.Parallel pool) seq in
  let full = orchestrator_answers ~config:seq cloud in
  check_answers "parallel" full (orchestrator_answers ~config:par cloud);
  let incremental = orchestrator_answers ~config:(inc seq) cloud in
  check_answers "parallel incremental" incremental
    (orchestrator_answers ~config:(inc par) cloud);
  check_answers "engine" incremental (engine_answers cloud);
  check
    Alcotest.(list string)
    "incremental checks reach the full verdicts"
    (List.map check_verdict full.checks)
    (List.map check_verdict incremental.checks);
  Alcotest.(check bool) "incremental survey reaches the full verdict" true
    (survey_key full.survey = survey_key incremental.survey);
  let s = full.survey in
  List.iter
    (fun vm ->
      Alcotest.(check bool)
        (Printf.sprintf "forger Dom%d missing or deviant" (vm + 1))
        true
        (List.mem vm s.Report.missing_on || List.mem vm s.Report.deviant_vms))
    [ forged_size_vm; cyclic_vm ];
  (* Every other VM answers as it does in the clean pool. *)
  let clean = orchestrator_answers ~config:seq (bounds_pool ~forged:false) in
  let status (s : Report.survey) vm =
    (List.mem vm s.Report.missing_on, List.mem vm s.Report.deviant_vms)
  in
  List.iteri
    (fun vm (got, want) ->
      if vm <> forged_size_vm && vm <> cyclic_vm then begin
        Alcotest.(check (pair bool bool))
          (Printf.sprintf "Dom%d survey status" (vm + 1))
          (status clean.survey vm) (status s vm);
        check Alcotest.string
          (Printf.sprintf "Dom%d check verdict" (vm + 1))
          (check_verdict want) (check_verdict got)
      end
      else
        Alcotest.(check bool)
          (Printf.sprintf "forger Dom%d not checked intact" (vm + 1))
          true
          (match got with Error _ -> true | Ok r -> not r.Report.majority_ok))
    (List.combine full.checks clean.checks)

let () =
  Alcotest.run "faults"
    [
      ( "profiles",
        [
          Alcotest.test_case "sp3 cloud" `Quick test_sp3_cloud_works;
          Alcotest.test_case "wrong profile" `Quick
            test_wrong_profile_reads_nothing;
          Alcotest.test_case "of_variant" `Quick test_profile_of_variant;
          Alcotest.test_case "kernel records variant" `Quick
            test_kernel_variant_recorded;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "cyclic list" `Quick test_cyclic_module_list;
          Alcotest.test_case "null flink" `Quick test_null_flink;
          Alcotest.test_case "unmapped flink" `Quick
            test_flink_to_unmapped_memory;
          Alcotest.test_case "absurd size" `Quick test_absurd_size_of_image;
          Alcotest.test_case "corrupt headers" `Quick
            test_corrupt_headers_in_guest;
          Alcotest.test_case "unmapped name buffer" `Quick
            test_name_buffer_unmapped;
          Alcotest.test_case "survey with corrupt VM" `Quick
            test_survey_with_one_corrupt_vm;
        ] );
      ( "fault plan",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
        ] );
      ( "retries and quorum",
        [
          Alcotest.test_case "transient absorbed" `Quick
            test_transient_faults_absorbed_by_retries;
          Alcotest.test_case "unreachable excluded" `Quick
            test_unreachable_vm_excluded_from_vote;
          Alcotest.test_case "quorum loss degrades" `Quick
            test_quorum_loss_degrades_not_infects;
          Alcotest.test_case "survey quorum loss" `Quick
            test_survey_quorum_loss;
          Alcotest.test_case "patrol quorum alarm" `Quick
            test_patrol_raises_quorum_loss_only;
        ] );
      ( "loud fallbacks",
        [
          Alcotest.test_case "reloc fallback counted" `Quick
            test_reloc_fallback_is_loud;
          Alcotest.test_case "hidden module reported" `Quick
            test_hidden_module_on_comparison_vm_reported;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "forgers on every path" `Quick
            test_bounds_hold_on_every_path;
        ] );
    ]
