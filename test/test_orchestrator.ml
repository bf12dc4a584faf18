(* Tests for the orchestrator: the full ModChecker pipeline, majority
   voting, surveys, module-list comparison, and reports. *)

module Cloud = Mc_hypervisor.Cloud
module Costs = Mc_hypervisor.Costs
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Artifact = Modchecker.Artifact
module Infect = Mc_malware.Infect
module Pool = Mc_parallel.Pool

let check = Alcotest.check

let check_exn ?mode ?others cloud ~target_vm ~module_name =
  let config =
    Orchestrator.Config.default
    |> (match mode with
       | Some m -> Orchestrator.Config.with_mode m
       | None -> Fun.id)
    |> match others with
       | Some o -> Orchestrator.Config.with_others o
       | None -> Fun.id
  in
  match Orchestrator.check_module ~config cloud ~target_vm ~module_name with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let test_clean_cloud_intact () =
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  List.iter
    (fun module_name ->
      let o = check_exn cloud ~target_vm:0 ~module_name in
      Alcotest.(check bool) (module_name ^ " intact") true
        o.report.Report.majority_ok;
      check Alcotest.int "full agreement" o.report.Report.total
        o.report.Report.matches;
      check Alcotest.int "t-1 comparisons" 3 o.report.Report.total;
      check
        Alcotest.(list string)
        "nothing flagged" []
        (List.map Artifact.kind_name o.report.Report.flagged_artifacts))
    [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ]

let test_infected_vm_flagged () =
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  (match Infect.single_opcode_replacement cloud ~vm:2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let o = check_exn cloud ~target_vm:2 ~module_name:"hal.dll" in
  Alcotest.(check bool) "suspicious" false o.report.Report.majority_ok;
  check Alcotest.int "no matches" 0 o.report.Report.matches;
  check
    Alcotest.(list string)
    "only .text" [ ".text" ]
    (List.map Artifact.kind_name o.report.Report.flagged_artifacts)

let test_clean_vm_sees_one_deviant_peer () =
  (* From a clean VM's viewpoint, one infected peer costs one match but
     does not break the majority, and nothing is flagged as the target's
     fault. *)
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  (match Infect.single_opcode_replacement cloud ~vm:2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let o = check_exn cloud ~target_vm:0 ~module_name:"hal.dll" in
  Alcotest.(check bool) "still intact" true o.report.Report.majority_ok;
  check Alcotest.int "one failed comparison" 2 o.report.Report.matches;
  check
    Alcotest.(list string)
    "no artifact pinned on the target" []
    (List.map Artifact.kind_name o.report.Report.flagged_artifacts)

let test_others_subset () =
  let cloud = Cloud.create ~vms:5 ~seed:100L () in
  let o = check_exn ~others:[ 1; 2 ] cloud ~target_vm:0 ~module_name:"hal.dll" in
  check Alcotest.int "two comparisons" 2 o.report.Report.total;
  check
    Alcotest.(list int)
    "compared against the requested VMs" [ 1; 2 ]
    (List.map (fun c -> c.Report.other_vm) o.report.Report.comparisons)

let test_no_comparison_vms () =
  let cloud = Cloud.create ~vms:1 ~seed:100L () in
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "single-VM cloud cannot vote"

let test_module_missing_on_target () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"ghost.sys" with
  | Error msg ->
      Alcotest.(check bool) "mentions module" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing module must error"

let test_module_missing_on_peer () =
  (* hello.sys loaded only on the target: every comparison fails, which is
     a (conservative) alarm, not an error. *)
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  let clean = (Mc_pe.Catalog.image "hello.sys").Mc_pe.Catalog.file in
  Infect.write_module_file (Cloud.vm cloud 0) ~name:"hello.sys" clean;
  (match Infect.load_driver (Cloud.vm cloud 0) ~name:"hello.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Mc_winkernel.Kernel.error_to_string e));
  let o = check_exn cloud ~target_vm:0 ~module_name:"hello.sys" in
  Alcotest.(check bool) "not intact" false o.report.Report.majority_ok;
  check Alcotest.int "zero matches" 0 o.report.Report.matches

let test_parallel_equals_sequential () =
  let cloud = Cloud.create ~vms:5 ~seed:100L () in
  (match Infect.inline_hook cloud ~vm:3 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let seq = check_exn cloud ~target_vm:3 ~module_name:"hal.dll" in
  let pool = Pool.create 3 in
  let par =
    check_exn ~mode:(Orchestrator.Parallel pool) cloud ~target_vm:3
      ~module_name:"hal.dll"
  in
  Pool.shutdown pool;
  check Alcotest.int "same matches" seq.report.Report.matches
    par.report.Report.matches;
  check Alcotest.bool "same verdict" seq.report.Report.majority_ok
    par.report.Report.majority_ok;
  check
    Alcotest.(list string)
    "same flags"
    (List.map Artifact.kind_name seq.report.Report.flagged_artifacts)
    (List.map Artifact.kind_name par.report.Report.flagged_artifacts)

let test_survey () =
  let cloud = Cloud.create ~vms:5 ~seed:100L () in
  (match Infect.single_opcode_replacement cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let s = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.(list int) "deviant VM found" [ 1 ] s.Report.deviant_vms;
  check Alcotest.(list int) "none missing" [] s.Report.missing_on;
  check Alcotest.int "all pairs compared" 10
    (List.length s.Report.pairwise_matches)

let test_survey_clean () =
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  let s = Orchestrator.survey cloud ~module_name:"http.sys" in
  check Alcotest.(list int) "no deviants" [] s.Report.deviant_vms

let test_survey_missing () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  (match Infect.hide_module cloud ~vm:1 ~module_name:"http.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let s = Orchestrator.survey cloud ~module_name:"http.sys" in
  check Alcotest.(list int) "missing recorded" [ 1 ] s.Report.missing_on

let test_mass_infection_factions () =
  (* §III-B's SQL-Slammer discussion: when an identical infection spreads
     to half the pool, there is no trustworthy majority. The survey splits
     the pool into two agreement classes and flags every VM. *)
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  let infected_file =
    match
      Mc_malware.Opcode_patch.infect_file ~module_name:"hal.dll"
        ~func:"HalInitSystem" ()
    with
    | Ok (f, _) -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun vm ->
      Infect.write_module_file (Cloud.vm cloud vm) ~name:"hal.dll" infected_file;
      Cloud.reboot_vm cloud vm)
    [ 1; 3 ];
  let s = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.int "two factions" 2 (List.length s.Report.agreement_classes);
  check
    Alcotest.(list (list int))
    "factions are the two halves"
    [ [ 0; 2 ]; [ 1; 3 ] ]
    (List.sort compare s.Report.agreement_classes);
  check Alcotest.(list int) "nobody can be trusted: all flagged" [ 0; 1; 2; 3 ]
    (List.sort compare s.Report.deviant_vms)

let test_agreement_classes_clean () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  let s = Orchestrator.survey cloud ~module_name:"hal.dll" in
  check Alcotest.(list (list int)) "single faction" [ [ 0; 1; 2 ] ]
    s.Report.agreement_classes

let test_compare_module_lists () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  check Alcotest.int "uniform cloud has no discrepancies" 0
    (List.length (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies);
  (match Infect.hide_module cloud ~vm:2 ~module_name:"tcpip.sys" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies with
  | [ d ] ->
      check Alcotest.string "module name" "tcpip.sys" d.Orchestrator.ld_module;
      check Alcotest.(list int) "missing on" [ 2 ] d.Orchestrator.missing_on;
      check Alcotest.(list int) "present on" [ 0; 1 ] d.Orchestrator.present_on
  | l -> Alcotest.fail (Printf.sprintf "expected 1 discrepancy, got %d" (List.length l))

let test_phase_and_vm_seconds () =
  let cloud = Cloud.create ~vms:4 ~seed:100L () in
  let o = check_exn cloud ~target_vm:0 ~module_name:"http.sys" in
  let costs = Costs.default in
  let p = Mc_harness.Figures.phase_seconds costs o in
  Alcotest.(check bool) "searcher cost dominates parser" true
    (p.searcher_s > p.parser_s);
  Alcotest.(check bool) "all phases positive" true
    (p.searcher_s > 0.0 && p.parser_s > 0.0 && p.checker_s > 0.0);
  let jobs = Mc_harness.Figures.per_vm_seconds costs o in
  check Alcotest.int "one job per VM incl. target" 4 (List.length jobs);
  List.iter (fun j -> Alcotest.(check bool) "positive job" true (j > 0.0)) jobs

let test_report_json () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  let o = check_exn cloud ~target_vm:0 ~module_name:"hal.dll" in
  let json = Mc_util.Json.to_string (Report.to_json o.report) in
  let contains needle =
    let hl = String.length json and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module field" true
    (contains "\"module\":\"hal.dll\"");
  Alcotest.(check bool) "verdict field" true (contains "\"majority_ok\":true");
  Alcotest.(check bool) "digests present" true (contains "\"md5_target\":");
  let sjson =
    Mc_util.Json.to_string
      (Report.survey_to_json (Orchestrator.survey cloud ~module_name:"hal.dll"))
  in
  Alcotest.(check bool) "survey classes serialized" true
    (let needle = "\"agreement_classes\":" in
     let hl = String.length sjson and nl = String.length needle in
     let rec go i = i + nl <= hl && (String.sub sjson i nl = needle || go (i + 1)) in
     go 0)

let test_report_rendering () =
  let cloud = Cloud.create ~vms:3 ~seed:100L () in
  let o = check_exn cloud ~target_vm:0 ~module_name:"hal.dll" in
  let table = Report.to_table o.report in
  Alcotest.(check bool) "table mentions artifacts" true
    (String.length table > 100);
  let v = Report.verdict_string o.report in
  check Alcotest.string "verdict" "INTACT (2/2)" v;
  let s = Format.asprintf "%a" Report.pp o.report in
  Alcotest.(check bool) "pp mentions module" true
    (String.length s > 0)

let test_majority_edge_two_vms () =
  (* t = 2: one comparison; n must exceed (t-1)/2 = 0.5, so a single match
     suffices and a single mismatch condemns. *)
  let cloud = Cloud.create ~vms:2 ~seed:100L () in
  let o = check_exn cloud ~target_vm:0 ~module_name:"hal.dll" in
  Alcotest.(check bool) "clean pair intact" true o.report.Report.majority_ok;
  (match Infect.inline_hook cloud ~vm:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let o = check_exn cloud ~target_vm:0 ~module_name:"hal.dll" in
  Alcotest.(check bool) "cannot vote around a bad peer at t=2" false
    o.report.Report.majority_ok

(* A warm Merkle check must cost what changed, not re-derive per-module
   state (reloc tables, golden-image parses) on every request: answering
   from cache allocates a few thousand words, a re-derivation hundreds of
   thousands. *)
let test_warm_check_allocation () =
  let cloud = Cloud.create ~vms:8 ~seed:1L () in
  let config =
    Orchestrator.Config.(
      default |> with_incremental (Orchestrator.create_incremental ()))
  in
  let run module_name =
    match Orchestrator.check_module ~config cloud ~target_vm:0 ~module_name with
    | Ok o ->
        Alcotest.(check bool) (module_name ^ " intact") true
          o.report.Report.majority_ok
    | Error e -> Alcotest.fail e
  in
  let modules = [ "hal.dll"; "ntoskrnl.exe"; "http.sys" ] in
  List.iter run modules;
  List.iter
    (fun module_name ->
      let before = Gc.minor_words () in
      run module_name;
      let words = Gc.minor_words () -. before in
      if words >= 20_000. then
        Alcotest.failf "warm %s check allocated %.0f minor words (limit 20000)"
          module_name words)
    modules

(* The work meter prices the paper's per-pair MD5 work, however the
   checker arrives at the digests: summed over a 15-VM check, the counts
   are pinned to literals, sequentially and on a pool. *)
let work_totals (o : Orchestrator.outcome) =
  let module Meter = Mc_hypervisor.Meter in
  List.fold_left
    (fun (h, s, p, c) (w : Orchestrator.vm_work) ->
      List.fold_left
        (fun (h, s, p, c) phase ->
          let k = Meter.get w.Orchestrator.work_meter phase in
          ( h + k.Meter.bytes_hashed,
            s + k.Meter.bytes_scanned,
            p + k.Meter.pages_mapped,
            c + k.Meter.bytes_copied ))
        (h, s, p, c)
        [ Meter.Searcher; Meter.Parser; Meter.Checker ])
    (0, 0, 0, 0) o.work

let test_meter_parity () =
  let cloud = Cloud.create ~vms:15 ~seed:17L () in
  let totals = Alcotest.(pair (pair int int) (pair int int)) in
  let expect name ~infected (h, s, p, c) (o : Orchestrator.outcome) =
    check Alcotest.bool (name ^ " verdict") infected
      (not o.report.Report.majority_ok);
    let h', s', p', c' = work_totals o in
    check totals (name ^ " hashed/scanned, mapped/copied")
      ((h, s), (p, c))
      ((h', s'), (p', c'))
  in
  let clean = (7379400, 7356440, 1260, 4827720)
  and hooked = (3716496, 3693536, 720, 2591160) in
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun mode ->
      expect "clean http.sys" ~infected:false clean
        (check_exn ?mode cloud ~target_vm:0 ~module_name:"http.sys"))
    [ None; Some (Orchestrator.Parallel pool) ];
  (match Infect.inline_hook cloud ~vm:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun mode ->
      expect "hooked hal.dll" ~infected:true hooked
        (check_exn ?mode cloud ~target_vm:0 ~module_name:"hal.dll"))
    [ None; Some (Orchestrator.Parallel pool) ]

(* --- Borrowed image buffers ------------------------------------------------ *)

module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Vmi = Mc_vmi.Vmi
module Kernel = Mc_winkernel.Kernel
module Searcher = Modchecker.Searcher
module Parser = Modchecker.Parser
module Phys = Mc_memsim.Phys

let session ?cache cloud vm =
  let dom = Cloud.vm cloud vm in
  Vmi.init ?cache dom
    (Mc_vmi.Symbols.of_variant (Kernel.os_variant (Dom.kernel_exn dom)))

(* A VM's artifacts as the orchestrator fetches them: through this
   domain's borrowed image buffer. *)
let fetch_lent cloud vm name =
  match
    Orchestrator.fetch_with_vmi (session cloud vm) ~vm ~module_name:name
      ~meter:(Meter.create ())
  with
  | Some (info, arts) -> (info, arts)
  | None -> Alcotest.fail (name ^ " not fetched")

(* The same artifacts from a fresh buffer. *)
let fetch_fresh cloud vm name =
  let vmi = session cloud vm in
  let info = Option.get (Searcher.find_module vmi ~name) in
  match Parser.artifacts (Searcher.copy_module vmi info) with
  | Ok arts -> arts
  | Error e -> Alcotest.fail e

let text arts =
  Option.get (Artifact.find arts (Artifact.Section_data ".text"))

(* A fetch of the same size after another VM's fills the buffer the
   first one left; a page unmapped on the second VM must read as zeros,
   not as the first VM's bytes. *)
let test_borrowed_zero_fill () =
  let cloud = Cloud.create ~vms:2 ~seed:131L () in
  let name = "ntoskrnl.exe" in
  let t = text (fetch_fresh cloud 1 name) in
  let page = Phys.frame_size in
  check Alcotest.int ".text page-aligned" 0 (t.Artifact.sec_rva mod page);
  let kernel = Dom.kernel_exn (Cloud.vm cloud 1) in
  let e = Option.get (Kernel.find_module kernel name) in
  Mc_memsim.Pagetable.unmap
    (Mc_memsim.Pagetable.of_cr3 (Kernel.phys kernel) (Kernel.cr3 kernel))
    ~va:(e.Mc_winkernel.Ldr.dll_base + t.Artifact.sec_rva);
  let info_a, arts_a = fetch_lent cloud 0 name in
  Alcotest.(check bool) "first VM's page is not zeros" false
    (Bytes.for_all (fun c -> c = '\000')
       (Bytes.sub (text arts_a).Artifact.data 0 page));
  let info_b, arts_b = fetch_lent cloud 1 name in
  check Alcotest.int "same SizeOfImage" info_a.Searcher.mi_size
    info_b.Searcher.mi_size;
  Alcotest.(check bool) "unmapped page reads as zeros" true
    (Bytes.for_all (fun c -> c = '\000')
       (Bytes.sub (text arts_b).Artifact.data 0 page));
  Alcotest.(check bool) "artifacts equal a fresh copy's" true
    (arts_b = fetch_fresh cloud 1 name)

(* A fetch that faults part way through the copy leaves the buffer half
   rewritten; the next clean fetch must not see any of it. *)
let test_borrowed_after_fault () =
  let cloud = Cloud.create ~vms:2 ~seed:132L () in
  let name = "ntoskrnl.exe" in
  ignore (fetch_lent cloud 0 name);
  let d = Cloud.vm cloud 1 in
  (* Warm a shared cache with the list walk and the first half of the
     image, so that with every frame paged out the copy gets half way. *)
  let cache = Vmi.create_cache () in
  let warm = session ~cache cloud 1 in
  let info = Option.get (Searcher.find_module warm ~name) in
  let half = info.Searcher.mi_size / 2 in
  ignore (Vmi.read_va_padded warm info.Searcher.mi_base half);
  d.Dom.faults <-
    Some
      (Mc_memsim.Faultplan.create
         { Mc_memsim.Faultplan.none with paged_out_rate = 1.0 });
  let page = Phys.frame_size in
  let first_cold = (info.Searcher.mi_base + half + page - 1) / page * page in
  let first_cold_pfn =
    Option.get
      (Mc_memsim.Addr_space.translate
         (Kernel.aspace (Dom.kernel_exn d))
         first_cold)
    / page
  in
  (match
     Orchestrator.fetch_with_vmi (session ~cache cloud 1) ~vm:1
       ~module_name:name ~meter:(Meter.create ())
   with
  | exception Vmi.Fault { f_pfn; _ } ->
      check Alcotest.int "faulted mid-copy" first_cold_pfn f_pfn
  | _ -> Alcotest.fail "expected a fault");
  d.Dom.faults <- None;
  Alcotest.(check bool) "clean fetch equals a fresh copy's" true
    (snd (fetch_lent cloud 1 name) = fetch_fresh cloud 1 name)

let () =
  Alcotest.run "orchestrator"
    [
      ( "check",
        [
          Alcotest.test_case "clean intact" `Quick test_clean_cloud_intact;
          Alcotest.test_case "infected flagged" `Quick test_infected_vm_flagged;
          Alcotest.test_case "clean view of deviant" `Quick
            test_clean_vm_sees_one_deviant_peer;
          Alcotest.test_case "others subset" `Quick test_others_subset;
          Alcotest.test_case "no comparison VMs" `Quick test_no_comparison_vms;
          Alcotest.test_case "missing on target" `Quick
            test_module_missing_on_target;
          Alcotest.test_case "missing on peer" `Quick test_module_missing_on_peer;
          Alcotest.test_case "parallel == sequential" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "majority at t=2" `Quick test_majority_edge_two_vms;
          Alcotest.test_case "meter parity" `Quick test_meter_parity;
        ] );
      ( "survey",
        [
          Alcotest.test_case "finds deviant" `Quick test_survey;
          Alcotest.test_case "clean" `Quick test_survey_clean;
          Alcotest.test_case "missing" `Quick test_survey_missing;
          Alcotest.test_case "module lists" `Quick test_compare_module_lists;
          Alcotest.test_case "mass infection factions" `Quick
            test_mass_infection_factions;
          Alcotest.test_case "clean single class" `Quick
            test_agreement_classes_clean;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "phase seconds" `Quick test_phase_and_vm_seconds;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "report json" `Quick test_report_json;
        ] );
      ( "warm path",
        [
          Alcotest.test_case "warm check allocation" `Quick
            test_warm_check_allocation;
        ] );
      ( "fetch",
        [
          Alcotest.test_case "borrowed zero fill" `Quick test_borrowed_zero_fill;
          Alcotest.test_case "borrowed after fault" `Quick
            test_borrowed_after_fault;
        ] );
    ]
