(* Incremental checking: log-dirty-driven digest caching across patrol
   sweeps. The contract under test: caching changes the price of a sweep,
   never its verdicts. *)

module Cloud = Mc_hypervisor.Cloud
module Xenctl = Mc_hypervisor.Xenctl
module Orchestrator = Modchecker.Orchestrator
module Digest_cache = Modchecker.Digest_cache
module Patrol = Modchecker.Patrol
module Report = Modchecker.Report
module Infect = Mc_malware.Infect
module Registry = Mc_telemetry.Registry
module Md5 = Mc_md5.Md5
module Merkle = Mc_md5.Merkle
module Meter = Mc_hypervisor.Meter

let check = Alcotest.check

let expect_ok = function Ok _ -> () | Error e -> failwith e

let watch = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ]

let config ~incremental =
  {
    Patrol.default_config with
    Patrol.watch;
    interval_s = 30.0;
    check = Orchestrator.Config.default;
    incremental;
  }

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* --- digest cache unit behaviour ------------------------------------------ *)

let test_digest_cache_unit () =
  let cloud = Cloud.create ~vms:1 ~seed:46L () in
  let d = Cloud.vm cloud 0 in
  let dc : string Digest_cache.t = Digest_cache.create () in
  let origin = Digest_cache.origin d in
  check Alcotest.(option string) "empty" None
    (Digest_cache.probe dc d ~vm:0 ~key:"k");
  Digest_cache.store dc ~vm:0 ~key:"k" ~origin ~footprint:[||] "v";
  check Alcotest.(option string) "hit" (Some "v")
    (Digest_cache.probe dc d ~vm:0 ~key:"k");
  check Alcotest.int "one entry" 1 (Digest_cache.length dc);
  (* An entry from another epoch read under another address-space root
     cannot be vouched for by its stamps: it is dropped. *)
  let older = { origin with Digest_cache.o_epoch = origin.o_epoch - 1 } in
  Digest_cache.store dc ~vm:0 ~key:"old"
    ~origin:{ older with o_cr3 = older.o_cr3 + 1 }
    ~footprint:[||] "w";
  check Alcotest.(option string) "stale epoch" None
    (Digest_cache.probe dc d ~vm:0 ~key:"old");
  check Alcotest.int "stale dropped" 1 (Digest_cache.length dc);
  (* Under the same root its stamps decide, and a current entry is
     carried into the new epoch. *)
  Digest_cache.store dc ~vm:0 ~key:"old" ~origin:older ~footprint:[||] "w";
  check Alcotest.(option string) "revalidated" (Some "w")
    (Digest_cache.probe dc d ~vm:0 ~key:"old");
  check Alcotest.(option string) "carried into the epoch" (Some "w")
    (Digest_cache.peek dc ~vm:0 ~key:"old" ~epoch:origin.o_epoch)

(* Across a restore the footprint's stamps judge an entry, but only one
   read under the same address-space root and through no foreign shim:
   neither shows in a stamp. *)
let test_digest_cache_revalidation () =
  let cloud = Cloud.create ~vms:1 ~seed:47L () in
  let d = Cloud.vm cloud 0 in
  let kernel = Mc_hypervisor.Dom.kernel_exn d in
  let base =
    (Option.get (Mc_winkernel.Kernel.find_module kernel "hal.dll"))
      .Mc_winkernel.Ldr.dll_base
  in
  let pfn =
    Option.get
      (Mc_memsim.Addr_space.translate (Mc_winkernel.Kernel.aspace kernel) base)
    / Mc_memsim.Phys.frame_size
  in
  let footprint () = [| (pfn, Xenctl.page_version d pfn) |] in
  let snap = Cloud.snapshot_vm cloud 0 in
  let dc : string Digest_cache.t = Digest_cache.create () in
  let probe_after_restore ?(shim_now = false) ~origin footprint =
    Digest_cache.store dc ~vm:0 ~key:"k" ~origin ~footprint "v";
    Cloud.restore_vm cloud 0 snap;
    if shim_now then
      Mc_memsim.Phys.set_foreign_shim
        (Mc_winkernel.Kernel.phys (Mc_hypervisor.Dom.kernel_exn d))
        (Some (fun _ page -> page));
    Digest_cache.probe_delta dc d ~vm:0 ~key:"k"
  in
  let kind = function
    | Digest_cache.Fresh { fresh_revalidated; _ } ->
        Printf.sprintf "fresh revalidated=%b" fresh_revalidated
    | Digest_cache.Stale { stale_dirty; stale_revalidated; _ } ->
        Printf.sprintf "stale %d dirty revalidated=%b" (List.length stale_dirty)
          stale_revalidated
    | Digest_cache.Missing -> "missing"
  in
  let origin = Digest_cache.origin d in
  check Alcotest.string "same root, no shim: carried"
    "fresh revalidated=true"
    (kind (probe_after_restore ~origin (footprint ())));
  check Alcotest.(option string) "re-stamped into the new epoch" (Some "v")
    (Digest_cache.peek dc ~vm:0 ~key:"k" ~epoch:(Xenctl.memory_epoch d));
  let origin = Digest_cache.origin d in
  check Alcotest.string "CR3 mismatch" "missing"
    (kind
       (probe_after_restore
          ~origin:{ origin with o_cr3 = origin.o_cr3 + 4096 }
          (footprint ())));
  check Alcotest.int "CR3 mismatch dropped" 0 (Digest_cache.length dc);
  let origin = Digest_cache.origin d in
  check Alcotest.string "read through a shim" "missing"
    (kind
       (probe_after_restore ~origin:{ origin with o_shim = true } (footprint ())));
  check Alcotest.string "a shim installed now" "missing"
    (kind (probe_after_restore ~shim_now:true ~origin:(Digest_cache.origin d)
             (footprint ())));
  let phys = Mc_winkernel.Kernel.phys (Mc_hypervisor.Dom.kernel_exn d) in
  let origin = Digest_cache.origin d in
  Digest_cache.store dc ~vm:0 ~key:"k" ~origin ~footprint:(footprint ()) "v";
  check Alcotest.string "a shim within its epoch" "fresh revalidated=false"
    (kind (Digest_cache.probe_delta dc d ~vm:0 ~key:"k"));
  Mc_memsim.Phys.set_foreign_shim phys None;
  (* A page written after the snapshot holds other bytes once restored:
     the entry comes back stale on that page alone, to be stored under
     the new epoch. *)
  Mc_memsim.Addr_space.write_bytes
    (Mc_winkernel.Kernel.aspace (Mc_hypervisor.Dom.kernel_exn d))
    base (Bytes.of_string "Z");
  let written = footprint () in
  let origin = Digest_cache.origin d in
  (match probe_after_restore ~origin written with
  | Digest_cache.Stale { stale_dirty; stale_origin; stale_revalidated; _ } ->
      check Alcotest.(list int) "the written page" [ pfn ] stale_dirty;
      check Alcotest.bool "revalidated" true stale_revalidated;
      check Alcotest.int "store under the new epoch"
        (Xenctl.memory_epoch d) stale_origin.o_epoch
  | r -> Alcotest.fail (kind r))

(* --- acceptance: steady-state cost on an idle pool ------------------------- *)

let test_idle_pool_speedup () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Registry.set_enabled false;
      Registry.reset ())
  @@ fun () ->
  let sweep_cpus incremental =
    let cloud = Cloud.create ~vms:15 ~seed:41L () in
    (Patrol.run ~config:(config ~incremental) cloud ~until:149.0)
      .Patrol.sweep_cpus
  in
  let full = sweep_cpus false in
  let inc = sweep_cpus true in
  check Alcotest.int "five sweeps" 5 (List.length inc);
  let full_steady = mean (List.tl full) in
  let inc_steady = mean (List.tl inc) in
  Alcotest.(check bool)
    (Printf.sprintf
       "steady incremental sweep >=10x cheaper (full %.4fs vs incremental \
        %.6fs)"
       full_steady inc_steady)
    true
    (full_steady >= 10.0 *. inc_steady);
  (* The first incremental sweep is the cold, cache-filling one. *)
  Alcotest.(check bool) "first sweep pays full price" true
    (List.hd inc >= 10.0 *. inc_steady);
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Registry.snapshot ()).Registry.snap_counters)
  in
  Alcotest.(check bool) "digest cache hit" true (counter "digest_cache.hits" > 0);
  Alcotest.(check bool) "digest cache missed (cold sweep)" true
    (counter "digest_cache.misses" > 0)

(* --- invalidation ---------------------------------------------------------- *)

let test_infection_invalidates () =
  let cloud = Cloud.create ~vms:6 ~seed:42L () in
  let infect cloud = expect_ok (Infect.inline_hook cloud ~vm:2) in
  let o =
    Patrol.run
      ~config:(config ~incremental:true)
      ~events:[ (70.0, infect) ] cloud ~until:200.0
  in
  (match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:70.0 with
  | None -> Alcotest.fail "incremental patrol missed the in-memory infection"
  | Some ttd ->
      Alcotest.(check bool) "detected on the next sweep" true (ttd <= 31.0));
  Alcotest.(check bool) "alarm names the infected VM" true
    (List.exists
       (fun a ->
         a.Patrol.alarm_module = "hal.dll"
         && a.Patrol.alarm_vms = [ 2 ]
         && a.Patrol.kind = Patrol.Hash_deviation)
       o.Patrol.alarms)

let test_reboot_recomputes_clean () =
  let cloud = Cloud.create ~vms:6 ~seed:43L () in
  let o =
    Patrol.run
      ~config:(config ~incremental:true)
      ~events:[ (70.0, fun cloud -> Cloud.reboot_vm cloud 1) ]
      cloud ~until:149.0
  in
  check Alcotest.int "no alarms from a clean reboot" 0
    (List.length o.Patrol.alarms);
  match o.Patrol.sweep_cpus with
  | [ _cold; steady1; _steady2; after_reboot; steady3 ] ->
      (* The epoch change invalidates Dom2's entries: the t=90 sweep
         re-fetches one VM, then the pool settles back to probe-only. *)
      Alcotest.(check bool) "reboot sweep recomputes" true
        (after_reboot > 2.0 *. steady1);
      Alcotest.(check bool) "steady again afterwards" true
        (after_reboot > 2.0 *. steady3)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 5 sweeps, got %d" (List.length l))

let test_identical_majority_escalates () =
  (* Regression (found by simtest, seed 2056): two VMs carrying the same
     disk patch reload identical shifted code at different bases. The
     per-VM reloc-guided fingerprints hash base-dependent garbage at the
     golden slot offsets, so the infected pair looked mutually deviant
     and every VM was flagged. A fingerprint disagreement now escalates
     to the full cross-buffer survey, whose verdict the incremental one
     must match exactly. *)
  let cloud = Cloud.create ~vms:3 ~cores:4 ~seed:2859845042692598870L () in
  expect_ok
    (Infect.single_opcode_replacement ~module_name:"hal.dll" ~func:"devex_937"
       cloud ~vm:2);
  expect_ok
    (Infect.single_opcode_replacement ~module_name:"hal.dll" ~func:"devex_937"
       cloud ~vm:1);
  let survey config =
    (Orchestrator.survey ~config cloud ~module_name:"hal.dll")
      .Report.deviant_vms
  in
  let full = survey Orchestrator.Config.default in
  let incr =
    survey
      Orchestrator.Config.(
        default |> with_incremental (Orchestrator.create_incremental ()))
  in
  (* The clean VM is the minority: the identically-infected pair agrees. *)
  check Alcotest.(list int) "full flags the clean minority" [ 0 ] full;
  check Alcotest.(list int) "incremental agrees" full incr

(* --- detection is unchanged by caching ------------------------------------- *)

let test_detections_survive_caching () =
  List.iter
    (fun (label, infect, module_name) ->
      let cloud = Cloud.create ~vms:5 ~seed:44L () in
      let inc = Orchestrator.create_incremental () in
      let config = Orchestrator.Config.(default |> with_incremental inc) in
      (* Warm the cache with a clean survey first. *)
      let clean = Orchestrator.survey ~config cloud ~module_name in
      check Alcotest.(list int) (label ^ ": clean pool") []
        clean.Report.deviant_vms;
      infect cloud;
      let s = Orchestrator.survey ~config cloud ~module_name in
      check Alcotest.(list int) (label ^ ": first sweep after infection")
        [ 1 ] s.Report.deviant_vms)
    [
      ( "E1 opcode replacement",
        (fun c -> expect_ok (Infect.single_opcode_replacement c ~vm:1)),
        "hal.dll" );
      ( "E2 inline hook",
        (fun c -> expect_ok (Infect.inline_hook c ~vm:1)),
        "hal.dll" );
      ( "E3 stub modification",
        (fun c -> expect_ok (Infect.stub_modification c ~vm:1)),
        "hello.sys" );
      ( "E4 dll injection",
        (fun c -> expect_ok (Infect.dll_injection c ~vm:1)),
        "dummy.sys" );
      ( "X-PTR pointer hook",
        (fun c -> expect_ok (Infect.pointer_hook c ~vm:1)),
        "hal.dll" );
    ]

let test_dkom_list_cache () =
  let cloud = Cloud.create ~vms:5 ~seed:45L () in
  let inc = Orchestrator.create_incremental () in
  let config = Orchestrator.Config.(default |> with_incremental inc) in
  check Alcotest.int "clean lists" 0
    (List.length (Orchestrator.survey_module_lists ~config cloud).Orchestrator.lc_discrepancies);
  (* Warm again so the listings are all cache hits... *)
  check Alcotest.int "still clean from cache" 0
    (List.length (Orchestrator.survey_module_lists ~config cloud).Orchestrator.lc_discrepancies);
  (* ...then DKOM-hide a module: the unlink writes the LDR list pages,
     which are in the cached walk's footprint. *)
  expect_ok (Infect.hide_module cloud ~vm:1 ~module_name:"http.sys");
  match (Orchestrator.survey_module_lists ~config cloud).Orchestrator.lc_discrepancies with
  | [ d ] ->
      check Alcotest.string "module" "http.sys" d.Orchestrator.ld_module;
      check Alcotest.(list int) "missing on" [ 1 ] d.Orchestrator.missing_on
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 discrepancy, got %d" (List.length l))

(* --- property: alarm parity over random event schedules -------------------- *)

let event_gen =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    list_size (return n)
      (triple (int_range 10 120) (int_range 1 4) (int_range 0 3)))

let apply_event (vm, kind) cloud =
  (* Events may legitimately fail (e.g. hiding an already-hidden module):
     detection parity is about what both patrols observe, so failures are
     ignored identically on both sides. *)
  let attempt r = match r with Ok _ | Error _ -> () in
  match kind with
  | 0 -> attempt (Infect.inline_hook cloud ~vm)
  | 1 -> attempt (Infect.hide_module cloud ~vm ~module_name:"http.sys")
  | 2 -> Cloud.reboot_vm cloud vm
  | _ -> attempt (Infect.single_opcode_replacement cloud ~vm)

let alarm_set o =
  List.sort_uniq compare
    (List.map
       (fun a ->
         ( a.Patrol.alarm_module,
           a.Patrol.alarm_vms,
           Patrol.alarm_kind_string a.Patrol.kind ))
       o.Patrol.alarms)

let prop_alarm_parity =
  QCheck.Test.make ~count:8
    ~name:"incremental and full patrols raise the same alarms"
    (QCheck.make event_gen) (fun schedule ->
      let events =
        List.map (fun (t, vm, kind) -> (float_of_int t, apply_event (vm, kind)))
          schedule
      in
      let run incremental =
        let cloud = Cloud.create ~vms:5 ~seed:47L () in
        Patrol.run ~config:(config ~incremental) ~events cloud ~until:139.0
      in
      let full = run false in
      let inc = run true in
      if alarm_set full <> alarm_set inc then
        QCheck.Test.fail_reportf "alarm sets diverge: full=%d inc=%d"
          (List.length (alarm_set full))
          (List.length (alarm_set inc))
      else true)

(* --- sealed prints: a print's stored fingerprint and root ---------------- *)

(* The derivation every warm read used to run, kept as the reference for
   the fields a print now carries. *)
let reference_fingerprint (mp : Orchestrator.merkle_print) =
  mp.Orchestrator.mp_flat
  @ List.map
      (fun (k, _, _, tree) -> (k, Md5.to_hex (Merkle.root tree)))
      mp.Orchestrator.mp_sections
  |> List.sort compare

let reference_root mp =
  List.map (fun (k, d) -> k ^ ":" ^ d ^ "\n") (reference_fingerprint mp)
  |> String.concat "" |> Md5.digest_string |> Md5.to_hex

let cached_print inc cloud ~vm ~module_name =
  match
    Digest_cache.peek inc.Orchestrator.inc_merkle ~vm ~key:module_name
      ~epoch:(Xenctl.memory_epoch (Cloud.vm cloud vm))
  with
  | Some (Some mp) -> mp
  | _ -> Alcotest.failf "no cached print for Dom%d" (vm + 1)

let check_sealed what inc cloud ~module_name =
  for vm = 0 to Cloud.vm_count cloud - 1 do
    let mp = cached_print inc cloud ~vm ~module_name in
    check
      Alcotest.(list (pair string string))
      (Printf.sprintf "%s: Dom%d fingerprint" what (vm + 1))
      (reference_fingerprint mp) mp.Orchestrator.mp_fingerprint;
    check
      Alcotest.(option string)
      (Printf.sprintf "%s: Dom%d root" what (vm + 1))
      (Some (reference_root mp))
      (Orchestrator.merkle_root inc cloud ~vm ~module_name)
  done

(* Rewrites one byte in each of the first [pages] .text pages, so the
   refreshed leaves really hash to new roots (a content-preserving touch
   would leave a stale fingerprint indistinguishable from a fresh one). *)
let scribble_text cloud ~vm ~module_name ~pages =
  let module As = Mc_memsim.Addr_space in
  let kernel = Mc_hypervisor.Dom.kernel_exn (Cloud.vm cloud vm) in
  let entry = Option.get (Mc_winkernel.Kernel.find_module kernel module_name) in
  let built =
    Mc_pe.Catalog.image ~version:(Cloud.vm_patch_level cloud vm) module_name
  in
  let aspace = Mc_winkernel.Kernel.aspace kernel in
  for i = 0 to pages - 1 do
    let va =
      entry.Mc_winkernel.Ldr.dll_base + built.Mc_pe.Catalog.text_rva
      + (i * Mc_memsim.Phys.frame_size) + 0x80
    in
    let b = As.read_bytes aspace va 1 in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    As.write_bytes aspace va b
  done

let test_sealed_prints () =
  let module_name = "hal.dll" in
  let counter name = Mc_telemetry.Metric.counter_value (Registry.counter name) in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  List.iter
    (fun k ->
      let cloud = Cloud.create ~vms:4 ~seed:46L () in
      let inc = Orchestrator.create_incremental () in
      let config = Orchestrator.Config.(default |> with_incremental inc) in
      ignore (Orchestrator.survey ~config cloud ~module_name);
      check_sealed "cold build" inc cloud ~module_name;
      let before = (cached_print inc cloud ~vm:2 ~module_name).mp_root in
      scribble_text cloud ~vm:2 ~module_name ~pages:k;
      let rebuilds = counter "merkle.full_rebuilds" in
      let leaves = counter "merkle.leaves_rehashed" in
      ignore (Orchestrator.survey ~config cloud ~module_name);
      let what = Printf.sprintf "refresh of %d dirty page(s)" k in
      check Alcotest.int (what ^ ": no rebuild") rebuilds
        (counter "merkle.full_rebuilds");
      check Alcotest.bool (what ^ ": leaves rehashed") true
        (counter "merkle.leaves_rehashed" > leaves);
      check Alcotest.bool (what ^ ": root moved") true
        (before <> (cached_print inc cloud ~vm:2 ~module_name).mp_root);
      check_sealed what inc cloud ~module_name;
      (* The simtest sabotage step: one flat digest byte flipped through
         the re-deriving constructor. *)
      let flipped =
        Digest_cache.tamper inc.Orchestrator.inc_merkle (fun ~vm ~key v ->
            match v with
            | Some ({ Orchestrator.mp_flat = (kind, d) :: rest; _ } as mp)
              when vm = 0 && key = module_name ->
                let d = (if d.[0] = '0' then "1" else "0") ^ String.sub d 1 31 in
                Some (Some (Orchestrator.merkle_print_with_flat mp ((kind, d) :: rest)))
            | _ -> None)
      in
      check Alcotest.int "sabotage flipped one print" 1 flipped;
      check_sealed "sabotage" inc cloud ~module_name;
      check Alcotest.bool "sabotage moved the root" true
        (Orchestrator.merkle_root inc cloud ~vm:0 ~module_name
        <> Orchestrator.merkle_root inc cloud ~vm:1 ~module_name))
    [ 1; 4 ]

(* --- fast-path reports share one verdict list ---------------------------- *)

let occurrences haystack needle =
  let n = String.length needle in
  let count = ref 0 in
  for i = 0 to String.length haystack - n do
    if String.sub haystack i n = needle then incr count
  done;
  !count

(* Every comparison rebuilt, so no two share a node. *)
let unshare_report (r : Report.module_report) =
  let copy_verdict (v : Modchecker.Checker.artifact_verdict) =
    { v with Modchecker.Checker.av_digest1 = v.av_digest1 }
  in
  {
    r with
    Report.comparisons =
      List.map
        (fun (c : Report.comparison) ->
          {
            c with
            Report.result =
              {
                c.result with
                Modchecker.Checker.verdicts =
                  List.map copy_verdict c.result.verdicts;
              };
          })
        r.comparisons;
  }

let test_fast_path_shared_report () =
  let module_name = "hal.dll" in
  let fast_paths () =
    Mc_telemetry.Metric.counter_value (Registry.counter "check.merkle_fast_path")
  in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  let cloud = Cloud.create ~vms:8 ~seed:46L () in
  expect_ok (Infect.hide_module cloud ~vm:5 ~module_name);
  let config =
    Orchestrator.Config.(
      default |> with_incremental (Orchestrator.create_incremental ()))
  in
  let run () =
    match Orchestrator.check_module ~config cloud ~target_vm:0 ~module_name with
    | Ok o -> o.Orchestrator.report
    | Error e -> Alcotest.fail e
  in
  ignore (run ());
  let before = fast_paths () in
  let r = run () in
  check Alcotest.int "warm check took the fast path" (before + 1) (fast_paths ());
  let absent, agreeing =
    List.partition (fun (c : Report.comparison) -> c.other_vm = 5) r.comparisons
  in
  check Alcotest.int "six agreeing comparisons" 6 (List.length agreeing);
  let shared = (List.hd agreeing).result in
  List.iter
    (fun (c : Report.comparison) ->
      check Alcotest.bool
        (Printf.sprintf "Dom%d holds the shared result" (c.other_vm + 1))
        true (c.result == shared))
    agreeing;
  (match absent with
  | [ c ] ->
      check Alcotest.bool "hidden VM mismatches" false c.result.all_match;
      List.iter
        (fun (v : Modchecker.Checker.artifact_verdict) ->
          check Alcotest.string "hidden VM's digest" "(absent)" v.av_digest2)
        c.result.verdicts
  | _ -> Alcotest.fail "expected one comparison against the hidden VM");
  let encoded = Mc_util.Json.to_string (Report.to_json r) in
  check Alcotest.string "compact bytes equal the unshared report's"
    (Mc_util.Json.to_string (Report.to_json (unshare_report r)))
    encoded;
  let absent_verdicts =
    List.fold_left
      (fun n (c : Report.comparison) -> n + List.length c.result.verdicts)
      0 absent
  in
  check Alcotest.bool "the hidden VM has verdicts" true (absent_verdicts > 0);
  check Alcotest.int "each hidden-VM verdict encodes (absent)" absent_verdicts
    (occurrences encoded {|"md5_other":"(absent)"|})

(* A report writes its reference verdict list once, and a comparison
   lists its own verdicts only where they differ from it: on a clean
   15-VM fast-path check no comparison lists any, and with Dom4 hooked
   and hal.dll hidden on Dom8 exactly those two do. *)
let test_fast_path_report_encoding () =
  let module_name = "hal.dll" in
  let fast_paths () =
    Mc_telemetry.Metric.counter_value (Registry.counter "check.merkle_fast_path")
  in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  let cloud = Cloud.create ~vms:15 ~seed:47L () in
  let config =
    Orchestrator.Config.(
      default |> with_incremental (Orchestrator.create_incremental ()))
  in
  let run () =
    match Orchestrator.check_module ~config cloud ~target_vm:0 ~module_name with
    | Ok o -> o.Orchestrator.report
    | Error e -> Alcotest.fail e
  in
  let field name = function
    | Mc_util.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  (* Each comparison's VM, and the length of its own "artifacts" list
     when it writes one. *)
  let own_lists r =
    let json = Report.to_json r in
    (match Report.of_json json with
    | Ok r' -> check Alcotest.bool "decodes to the same report" true (r' = r)
    | Error e -> Alcotest.fail e);
    match field "comparisons" json with
    | Some (Mc_util.Json.List cs) ->
        List.map
          (fun c ->
            ( (match field "other_vm" c with
              | Some (Mc_util.Json.Int vm) -> vm
              | _ -> Alcotest.fail "comparison without other_vm"),
              match field "artifacts" c with
              | Some (Mc_util.Json.List l) -> Some (List.length l)
              | Some _ -> Alcotest.fail "artifacts is not a list"
              | None -> None ))
          cs
    | _ -> Alcotest.fail "report without comparisons"
  in
  ignore (run ());
  let before = fast_paths () in
  let clean = run () in
  check Alcotest.int "warm check took the fast path" (before + 1) (fast_paths ());
  let lists = own_lists clean in
  check Alcotest.int "14 comparisons" 14 (List.length lists);
  check Alcotest.(list int) "no clean comparison lists its own verdicts" []
    (List.filter_map (fun (vm, l) -> Option.map (fun _ -> vm) l) lists);
  expect_ok (Infect.inline_hook cloud ~vm:3);
  expect_ok (Infect.hide_module cloud ~vm:7 ~module_name);
  ignore (run ());
  let r = run () in
  let own = List.filter_map (fun (vm, l) -> Option.map (fun n -> (vm, n)) l) (own_lists r) in
  check Alcotest.(list int) "only the hooked and the hidden VM list their own"
    [ 3; 7 ] (List.map fst own);
  List.iter
    (fun (c : Report.comparison) ->
      if c.other_vm = 3 || c.other_vm = 7 then begin
        check Alcotest.bool
          (Printf.sprintf "Dom%d mismatches" (c.other_vm + 1))
          false c.result.all_match;
        check Alcotest.int
          (Printf.sprintf "Dom%d lists every verdict" (c.other_vm + 1))
          (List.length c.result.verdicts) (List.assoc c.other_vm own)
      end
      else
        check Alcotest.bool
          (Printf.sprintf "Dom%d agrees" (c.other_vm + 1))
          true c.result.all_match)
    r.comparisons

(* --- property: a revalidated print is a from-scratch print ------------------ *)

(* Guest writes (real and same-bytes), snapshots, restores and reboots in
   random order. After each one, every VM's print in a long-lived cache,
   carried across epochs by its stamps or refreshed where they moved,
   must equal the print a cache built from scratch holds. *)
let revalidation_ops =
  QCheck.Gen.(list_size (int_range 1 8) (pair (int_range 0 1) (int_range 0 5)))

let print_view (mp : Orchestrator.merkle_print) =
  ( mp.Orchestrator.mp_base,
    mp.Orchestrator.mp_root,
    mp.Orchestrator.mp_fingerprint,
    List.sort compare
      (List.map
         (fun (pfn, leaves) -> (pfn, List.sort compare leaves))
         mp.Orchestrator.mp_page_index) )

let prop_revalidated_prints =
  let modules = [ "hal.dll"; "http.sys" ] in
  QCheck.Test.make ~count:15
    ~name:"a revalidated print equals a from-scratch print"
    (QCheck.make revalidation_ops) (fun ops ->
      let cloud = Cloud.create ~vms:2 ~seed:48L () in
      let snaps = Array.init 2 (Cloud.snapshot_vm cloud) in
      let inc = Orchestrator.create_incremental () in
      let survey inc =
        let config = Orchestrator.Config.(default |> with_incremental inc) in
        List.iter
          (fun module_name -> ignore (Orchestrator.survey ~config cloud ~module_name))
          modules
      in
      survey inc;
      List.for_all
        (fun (vm, op) ->
          (match op with
          | 0 -> scribble_text cloud ~vm ~module_name:"hal.dll" ~pages:(1 + vm)
          | 1 ->
              ignore
                (Infect.benign_touch ~module_name:"http.sys" ~pages:2 cloud ~vm)
          | 2 -> snaps.(vm) <- Cloud.snapshot_vm cloud vm
          | 3 | 4 -> Cloud.restore_vm cloud vm snaps.(vm)
          | _ -> Cloud.reboot_vm cloud vm);
          survey inc;
          let scratch = Orchestrator.create_incremental () in
          survey scratch;
          List.for_all
            (fun module_name ->
              List.for_all
                (fun vm ->
                  print_view (cached_print inc cloud ~vm ~module_name)
                  = print_view (cached_print scratch cloud ~vm ~module_name))
                [ 0; 1 ])
            modules)
        ops)

let test_revalidated_prints () =
  let counter name = Mc_telemetry.Metric.counter_value (Registry.counter name) in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  QCheck.Test.check_exn ~rand:(Random.State.make [| 29 |])
    prop_revalidated_prints;
  check Alcotest.bool "some print was carried across a restore" true
    (counter "digest_cache.revalidated" > 0)

(* --- print-path pins ------------------------------------------------------- *)

(* Literals captured from the build that stripped load bases by folding
   the whole golden reloc list over each section: moving prints onto the
   validated slot tables changes no byte a clean print hashes and no
   metered count. *)
let summed_meter meter =
  List.fold_left
    (fun (scanned, hashed, nodes) phase ->
      let c = Meter.get meter phase in
      ( scanned + c.Meter.bytes_scanned,
        hashed + c.Meter.bytes_hashed,
        nodes + c.Meter.merkle_nodes ))
    (0, 0, 0)
    [ Meter.Searcher; Meter.Parser; Meter.Checker ]

let pinned_survey config cloud ~module_name =
  let meter = Meter.create () in
  let s = Orchestrator.survey ~config ~meter cloud ~module_name in
  (Report.verdict_key s.Report.s_verdict, s.Report.deviant_vms, summed_meter meter)

let survey_pin = Alcotest.(triple string (list int) (triple int int int))

let test_print_path_pins () =
  let counter name = Mc_telemetry.Metric.counter_value (Registry.counter name) in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  let module_name = "hal.dll" in
  let cloud = Cloud.create ~vms:15 ~seed:48L ~patch_levels:[ 1; 2; 3 ] () in
  let inc = Orchestrator.create_incremental () in
  let config = Orchestrator.Config.(default |> with_incremental inc) in
  let roots () =
    List.sort_uniq compare
      (List.init (Cloud.vm_count cloud) (fun vm ->
           Option.get (Orchestrator.merkle_root inc cloud ~vm ~module_name)))
  in
  let pinned_roots =
    [
      "17b8bf0fa46f13be2640185509653423";
      "b9ba18b11bec191e53ee2990b9f5c762";
      "d9b9ca76693276ba515590b33c7689e7";
    ]
  in
  check survey_pin "cold survey"
    ("intact", [], (1979165, 1991465, 480))
    (pinned_survey config cloud ~module_name);
  check Alcotest.(list string) "cold roots" pinned_roots (roots ());
  expect_ok (Infect.benign_touch ~pages:4 cloud ~vm:2);
  let leaves = counter "merkle.leaves_rehashed" in
  check survey_pin "4-page refresh"
    ("intact", [], (20507, 20480, 9))
    (pinned_survey config cloud ~module_name);
  check Alcotest.int "leaves rehashed" 5
    (counter "merkle.leaves_rehashed" - leaves);
  check Alcotest.(list string) "refreshed roots" pinned_roots (roots ());
  let cloud = Cloud.create ~vms:15 ~seed:48L () in
  expect_ok (Infect.dll_injection cloud ~vm:4);
  let config =
    Orchestrator.Config.(
      default |> with_incremental (Orchestrator.create_incremental ()))
  in
  let reps = counter "survey.escalation_reps" in
  let members = counter "survey.escalation_member_pairs" in
  check survey_pin "dll-inject survey"
    ("infected", [ 4 ], (69549, 95234, 17))
    (pinned_survey config cloud ~module_name:"dummy.sys");
  check Alcotest.int "representatives" 2 (counter "survey.escalation_reps" - reps);
  check Alcotest.int "member pairs" 0
    (counter "survey.escalation_member_pairs" - members)

(* --- hostile section headers ---------------------------------------------- *)

(* The image offset of the 40-byte section header named [name] (its
   8-byte, zero-padded name field), searched for in the first page. *)
let section_header_offset image name =
  let field = Bytes.make 8 '\000' in
  Bytes.blit_string name 0 field 0 (String.length name);
  let rec find i =
    if i + 8 > Bytes.length image then Alcotest.failf "no %s header" name
    else if Bytes.equal (Bytes.sub image i 8) field then i
    else find (i + 1)
  in
  find 0

(* A guest that moves a hashable section's RVA in its header, or resizes
   the section, no longer matches its golden slot table, so its print
   hashes that section raw instead of rewriting bytes the header chose,
   and a leaf refresh keeps it raw. The print path must agree with the
   full survey and must not grow the golden memo. *)
let test_hostile_headers () =
  let module As = Mc_memsim.Addr_space in
  let module Le = Mc_util.Le in
  let module_name = "hal.dll" and vm = 3 in
  let counter name = Mc_telemetry.Metric.counter_value (Registry.counter name) in
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  (* Memoize hal.dll's golden entry first, so the count below can only
     grow through a forged header. *)
  let (_ : Modchecker.Checker.slot_tables) =
    Orchestrator.slot_tables module_name
  in
  List.iter
    (fun (what, forge) ->
      let cloud = Cloud.create ~vms:6 ~seed:49L () in
      let kernel = Mc_hypervisor.Dom.kernel_exn (Cloud.vm cloud vm) in
      let entry = Option.get (Mc_winkernel.Kernel.find_module kernel module_name) in
      let base = entry.Mc_winkernel.Ldr.dll_base in
      let aspace = Mc_winkernel.Kernel.aspace kernel in
      let hdr =
        base + section_header_offset (As.read_bytes aspace base 0x1000) ".text"
      in
      let field = As.read_bytes aspace hdr 16 in
      let rva, size = forge (Le.get_u32_int field 12, Le.get_u32_int field 8) in
      Le.set_u32_int field 12 rva;
      Le.set_u32_int field 8 size;
      As.write_bytes aspace hdr field;
      let cached = Orchestrator.golden_tables_cached () in
      let inc = Orchestrator.create_incremental () in
      let config = Orchestrator.Config.(default |> with_incremental inc) in
      let surveys when_ =
        let incremental = Orchestrator.survey ~config cloud ~module_name in
        let full = Orchestrator.survey cloud ~module_name in
        let what = Printf.sprintf "%s, %s" what when_ in
        check Alcotest.string (what ^ ": verdict")
          (Report.verdict_key full.Report.s_verdict)
          (Report.verdict_key incremental.Report.s_verdict);
        check Alcotest.(list (list int)) (what ^ ": agreement classes")
          full.Report.agreement_classes incremental.Report.agreement_classes;
        check Alcotest.(list int) (what ^ ": deviants") [ vm ]
          incremental.Report.deviant_vms;
        let mp = cached_print inc cloud ~vm ~module_name in
        match
          List.find_opt
            (fun (k, _, _, _) -> k = ".text")
            mp.Orchestrator.mp_sections
        with
        | Some (_, _, table, tree) ->
            check Alcotest.bool (what ^ ": no table") true (table = None);
            let raw = As.read_bytes aspace (base + rva) size in
            check Alcotest.string (what ^ ": raw-byte root")
              (Md5.to_hex (Merkle.root (Merkle.of_bytes raw)))
              (Md5.to_hex (Merkle.root tree))
        | None -> Alcotest.failf "%s: no .text in the print" what
      in
      surveys "built";
      let leaves = counter "merkle.leaves_rehashed" in
      expect_ok (Infect.benign_touch ~pages:2 cloud ~vm);
      surveys "refreshed";
      check Alcotest.bool (what ^ ": leaves rehashed") true
        (counter "merkle.leaves_rehashed" > leaves);
      check Alcotest.int (what ^ ": golden memo did not grow") cached
        (Orchestrator.golden_tables_cached ()))
    [
      ("moved", fun (rva, size) -> (rva + 0x10, size));
      ("resized", fun (rva, size) -> (rva, size - 16));
    ]

let () =
  Alcotest.run "incremental"
    [
      ( "digest-cache",
        [
          Alcotest.test_case "unit" `Quick test_digest_cache_unit;
          Alcotest.test_case "revalidation across a restore" `Quick
            test_digest_cache_revalidation;
        ] );
      ( "cost",
        [ Alcotest.test_case "idle pool >=10x" `Quick test_idle_pool_speedup ]
      );
      ( "invalidation",
        [
          Alcotest.test_case "in-memory infection" `Quick
            test_infection_invalidates;
          Alcotest.test_case "reboot" `Quick test_reboot_recomputes_clean;
        ] );
      ( "detection",
        [
          Alcotest.test_case "scenarios" `Quick test_detections_survive_caching;
          Alcotest.test_case "identical majority escalates" `Quick
            test_identical_majority_escalates;
          Alcotest.test_case "DKOM list" `Quick test_dkom_list_cache;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "shared verdict list, same bytes" `Quick
            test_fast_path_shared_report;
          Alcotest.test_case "15-VM report lists deviating verdicts only"
            `Quick test_fast_path_report_encoding;
        ] );
      ( "sealed prints",
        [ Alcotest.test_case "stored fingerprint and root" `Quick
            test_sealed_prints ] );
      ( "print pins",
        [ Alcotest.test_case "survey, refresh, dll-inject" `Quick
            test_print_path_pins ] );
      ( "forged header",
        [ Alcotest.test_case "moved or resized section prints raw" `Quick
            test_hostile_headers ] );
      ( "parity",
        List.map QCheck_alcotest.to_alcotest [ prop_alarm_parity ] );
      ( "revalidation",
        [ Alcotest.test_case "revalidated = from-scratch prints" `Quick
            test_revalidated_prints ] );
    ]
