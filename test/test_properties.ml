(* Cross-library property-based tests: invariants that must hold for
   arbitrary modules, bases, and cloud seeds. *)

module Build = Mc_pe.Build
module Read = Mc_pe.Read
module Flags = Mc_pe.Flags
module Catalog = Mc_pe.Catalog
module Loader = Mc_winkernel.Loader
module Cloud = Mc_hypervisor.Cloud
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Rng = Mc_util.Rng

(* --- PE build/parse roundtrip over random section specs ------------------- *)

let spec_gen =
  QCheck.Gen.(
    let* n_sections = int_range 1 5 in
    let* seed = int in
    return (n_sections, seed))

let make_specs (n_sections, seed) =
  let rng = Rng.create (Int64.of_int seed) in
  List.init n_sections (fun i ->
      let size = 1 + Rng.int rng 3000 in
      let data = Rng.bytes rng size in
      (* A few non-overlapping 4-byte slots on an 8-byte grid. *)
      let n_slots = Rng.int rng (max 1 (size / 64)) in
      let slots =
        List.sort_uniq compare
          (List.init n_slots (fun _ -> 8 * Rng.int rng (max 1 ((size / 8) - 1))))
        |> List.filter (fun off -> off + 4 <= size)
      in
      Build.
        {
          spec_name = Printf.sprintf ".s%d" i;
          spec_data = data;
          spec_characteristics =
            (if i = 0 then Flags.cnt_code lor Flags.mem_execute lor Flags.mem_read
             else Flags.cnt_initialized_data lor Flags.mem_read);
          spec_relocs = slots;
        })

let prop_pe_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pe build/parse roundtrip"
    (QCheck.make spec_gen) (fun params ->
      let specs = make_specs params in
      let file = Build.build specs in
      match Read.parse ~layout:File file with
      | Error _ -> false
      | Ok image ->
          let checksum_ok =
            match Read.verify_checksum file with Ok b -> b | Error _ -> false
          in
          let sections_match =
            List.for_all
              (fun spec ->
                match Read.find_section image spec.Build.spec_name with
                | Some (sec, data) ->
                    sec.Mc_pe.Types.virtual_size
                    = Bytes.length spec.Build.spec_data
                    && Bytes.equal
                         (Bytes.sub data 0 (Bytes.length spec.Build.spec_data))
                         spec.Build.spec_data
                | None -> false)
              specs
          in
          let rvas = Build.layout_rvas specs in
          let expected_slots =
            List.concat_map
              (fun spec ->
                let rva = List.assoc spec.Build.spec_name rvas in
                List.map (fun off -> rva + off) spec.Build.spec_relocs)
              specs
            |> List.sort compare
          in
          let parsed_slots = Read.base_relocations ~layout:File file image in
          checksum_ok && sections_match && parsed_slots = expected_slots)

(* --- Loader: two loads differ only at relocation slots -------------------- *)

let prop_loader_diff_is_relocs =
  QCheck.Test.make ~count:40 ~name:"loads at two bases differ only at slots"
    QCheck.(pair (int_range 0 0x3FF) (int_range 0 0x3FF))
    (fun (s1, s2) ->
      let file = (Catalog.image "disk.sys").Catalog.file in
      let base1 = 0xF8000000 + (s1 * 0x10000) in
      let base2 = 0xF8000000 + (s2 * 0x10000) in
      let mem1 =
        match Loader.simulate_load file ~base:base1 with
        | Ok m -> m
        | Error _ -> Bytes.create 0
      in
      let mem2 =
        match Loader.simulate_load file ~base:base2 with
        | Ok m -> m
        | Error _ -> Bytes.create 0
      in
      let image =
        match Read.parse ~layout:File file with
        | Ok i -> i
        | Error _ -> failwith "parse"
      in
      let slot_ranges =
        List.map
          (fun rva -> (rva, rva + 4))
          (Read.base_relocations ~layout:File file image)
      in
      let in_slot pos =
        List.exists (fun (lo, hi) -> pos >= lo && pos < hi) slot_ranges
      in
      Bytes.length mem1 = Bytes.length mem2
      &&
      let ok = ref true in
      Bytes.iteri
        (fun pos c ->
          if c <> Bytes.get mem2 pos && not (in_slot pos) then ok := false)
        mem1;
      !ok)

(* --- Full pipeline: a clean pool is INTACT for any seed ------------------- *)

let prop_clean_pool_intact =
  QCheck.Test.make ~count:8 ~name:"clean pool votes INTACT at any seed"
    QCheck.(int_bound 100000)
    (fun seed ->
      let cloud = Cloud.create ~vms:3 ~seed:(Int64.of_int seed) () in
      List.for_all
        (fun name ->
          match Orchestrator.check_module cloud ~target_vm:0 ~module_name:name with
          | Ok o -> o.Orchestrator.report.Report.majority_ok
          | Error _ -> false)
        [ "hal.dll"; "disk.sys" ])

(* --- Detection: an infected VM is flagged at any seed ---------------------- *)

let prop_infection_detected =
  QCheck.Test.make ~count:6 ~name:"inline hook detected at any seed"
    QCheck.(int_bound 100000)
    (fun seed ->
      let cloud = Cloud.create ~vms:3 ~seed:(Int64.of_int seed) () in
      match Mc_malware.Infect.inline_hook cloud ~vm:1 with
      | Error _ -> false
      | Ok _ -> (
          match
            Orchestrator.check_module cloud ~target_vm:1 ~module_name:"hal.dll"
          with
          | Ok o -> not o.Orchestrator.report.Report.majority_ok
          | Error _ -> false))

(* --- Fault plans: rate 0 is invisible, nonzero rates are absorbed ---------- *)

let prop_zero_rate_bit_identical =
  QCheck.Test.make ~count:6 ~name:"all-zero fault plan is bit-identical"
    QCheck.(int_bound 100000)
    (fun seed ->
      (* A fault plan whose rates are all zero (any fault seed) must not
         perturb a single byte of the reports. *)
      let zero =
        { Mc_memsim.Faultplan.none with Mc_memsim.Faultplan.fault_seed = seed }
      in
      let c1 = Cloud.create ~vms:3 ~seed:(Int64.of_int seed) () in
      let c2 =
        Cloud.create ~vms:3 ~seed:(Int64.of_int seed) ~fault_spec:zero ()
      in
      let survey_json c =
        Mc_util.Json.to_string_pretty
          (Report.survey_to_json (Orchestrator.survey c ~module_name:"hal.dll"))
      in
      let check_json c =
        match
          Orchestrator.check_module c ~target_vm:0 ~module_name:"disk.sys"
        with
        | Ok o ->
            Mc_util.Json.to_string_pretty (Report.to_json o.Orchestrator.report)
        | Error e -> "error: " ^ e
      in
      survey_json c1 = survey_json c2 && check_json c1 = check_json c2)

let prop_detection_under_transient_faults =
  QCheck.Test.make ~count:6 ~name:"hook detected under 5% transient faults"
    QCheck.(int_bound 100000)
    (fun seed ->
      let faults =
        {
          Mc_memsim.Faultplan.none with
          Mc_memsim.Faultplan.transient_rate = 0.05;
          fault_seed = seed;
        }
      in
      (* 4 VMs: the clean control check still carries a 2-of-3 majority
         with one infected comparison VM in the pool. *)
      let cloud =
        Cloud.create ~vms:4 ~seed:(Int64.of_int seed) ~fault_spec:faults ()
      in
      match Mc_malware.Infect.inline_hook cloud ~vm:1 with
      | Error _ -> false
      | Ok _ ->
          (match
             Orchestrator.check_module cloud ~target_vm:1 ~module_name:"hal.dll"
           with
          | Ok o -> o.Orchestrator.report.Report.verdict = Report.Infected
          | Error _ -> false)
          && (
          match
            Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll"
          with
          | Ok o -> o.Orchestrator.report.Report.verdict = Report.Intact
          | Error _ -> false))

(* --- The cohort vote matches its definition ---------------------------------- *)

(* Members 0..n-1 are dealt into random agreement classes, which are then
   handed over in two independent shuffles. The brute-force reference
   reads the rule per voter: with two or more classes, a voter deviates
   unless its own class is a strict majority of the cohort. *)
let prop_cohort_deviants_reference =
  QCheck.Test.make ~count:300 ~name:"cohort vote matches brute force"
    QCheck.(triple (int_range 0 12) (int_range 1 5) int)
    (fun (n, k, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let label = Array.init n (fun _ -> Rng.int rng k) in
      let members = List.init n Fun.id in
      let classes =
        List.filter_map
          (fun l ->
            match List.filter (fun v -> label.(v) = l) members with
            | [] -> None
            | c -> Some c)
          (List.init k Fun.id)
      in
      let shuffle l =
        List.map (fun x -> (Rng.int rng 1_000_000, x)) l
        |> List.sort compare |> List.map snd
      in
      let reference =
        List.filter
          (fun v ->
            let own = List.filter (fun w -> label.(w) = label.(v)) members in
            List.length classes >= 2 && not (2 * List.length own > n))
          members
      in
      let vote () =
        Report.cohort_deviants ~members:(shuffle members)
          (shuffle (List.map shuffle classes))
      in
      vote () = reference && vote () = reference)

(* --- Table/chart renderers never raise -------------------------------------- *)

let prop_table_total =
  (* Bounded sizes: the default list/string generators can produce
     ~10k x 10k cell tables, whose rendered output alone is gigabytes.
     Totality doesn't need monsters; it needs ragged rows, empty cells,
     and odd characters. *)
  let cell_gen = QCheck.Gen.(string_size ~gen:char (int_bound 30)) in
  let row_gen = QCheck.Gen.(list_size (int_bound 12) cell_gen) in
  QCheck.Test.make ~count:100 ~name:"table renderer is total"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 25) row_gen) row_gen))
    (fun (rows, header) ->
      ignore (Mc_util.Table.render ~header rows);
      true)

let prop_json_string_roundtrip =
  (* Any byte string survives emit-then-parse as a value and as a key, in
     both renderings. Quotes, backslashes and control characters are
     weighted up so every escape branch is exercised. *)
  let byte_gen =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ '"'; '\\' ]);
          (3, map Char.chr (int_range 0x00 0x1f));
          (4, map Char.chr (int_range 0x00 0xff));
        ])
  in
  let str_gen = QCheck.Gen.(string_size ~gen:byte_gen (int_bound 24)) in
  QCheck.Test.make ~count:500 ~name:"json string and key roundtrip"
    (QCheck.make ~print:(fun (k, v) -> Printf.sprintf "%S %S" k v)
       QCheck.Gen.(pair str_gen str_gen))
    (fun (k, v) ->
      let doc =
        Mc_util.Json.(Obj [ (k, String v); ("l", List [ String k ]) ])
      in
      Mc_util.Json.of_string (Mc_util.Json.to_string doc) = Ok doc
      && Mc_util.Json.of_string (Mc_util.Json.to_string_pretty doc) = Ok doc)

let prop_chart_total =
  QCheck.Test.make ~count:100 ~name:"chart renderer is total"
    QCheck.(list (pair (pair small_nat small_nat) (list (pair float float))))
    (fun series ->
      let series =
        List.map
          (fun ((a, b), pts) ->
            ( Printf.sprintf "s%d%d" a b,
              List.filter
                (fun (x, y) -> Float.is_finite x && Float.is_finite y)
                pts ))
          series
      in
      ignore
        (Mc_util.Table.chart ~title:"t" ~x_label:"x" ~y_label:"y" series);
      true)

(* --- Searcher/guest agreement for any catalog module ----------------------- *)

let prop_searcher_agrees_with_guest =
  QCheck.Test.make ~count:6 ~name:"searcher sees what the guest loaded"
    QCheck.(int_bound 100000)
    (fun seed ->
      let cloud = Cloud.create ~vms:1 ~seed:(Int64.of_int seed) () in
      let dom = Cloud.vm cloud 0 in
      let vmi = Mc_vmi.Vmi.init dom Mc_vmi.Symbols.windows_xp_sp2 in
      let via_vmi =
        List.map
          (fun (i : Modchecker.Searcher.module_info) -> (i.mi_name, i.mi_base))
          (Modchecker.Searcher.list_modules vmi)
      in
      let via_guest =
        List.map
          (fun (e : Mc_winkernel.Ldr.entry) -> (e.base_dll_name, e.dll_base))
          (Mc_winkernel.Kernel.modules (Mc_hypervisor.Dom.kernel_exn dom))
      in
      via_vmi = via_guest)

(* --- Simulation-promoted invariants ----------------------------------------
   Cross-cutting invariants the simtest runner checks per step, promoted
   to properties over arbitrary seeds and infections (DESIGN.md,
   "Simulation testing"). *)

let survey_key (s : Report.survey) =
  ( Report.verdict_key s.Report.s_verdict,
    List.sort compare s.Report.deviant_vms,
    List.sort compare s.Report.missing_on,
    List.sort compare (List.map fst s.Report.unreachable_on) )

let techniques =
  [|
    (fun cloud vm -> Mc_malware.Infect.single_opcode_replacement cloud ~vm);
    (fun cloud vm -> Mc_malware.Infect.inline_hook cloud ~vm);
    (fun cloud vm -> Mc_malware.Infect.stub_modification cloud ~vm);
    (fun cloud vm -> Mc_malware.Infect.dll_injection cloud ~vm);
    (fun cloud vm -> Mc_malware.Infect.pointer_hook cloud ~vm);
  |]

let prop_survey_mode_parity =
  QCheck.Test.make ~count:6
    ~name:"survey parity: sequential = parallel = engine"
    QCheck.(triple (int_bound 100000) (int_bound 10000) (int_range 1 3))
    (fun (seed, pick, shards) ->
      let vms = 3 + (pick mod 3) in
      let cloud = Cloud.create ~vms ~seed:(Int64.of_int seed) () in
      let vm = pick mod vms in
      (match techniques.(pick mod Array.length techniques) cloud vm with
      | Ok _ -> ()
      | Error e -> failwith e);
      let pool = Mc_parallel.Pool.create 2 in
      let engine = Mc_engine.create ~shards cloud in
      let par_cfg =
        Orchestrator.Config.with_mode (Orchestrator.Parallel pool)
          Orchestrator.Config.default
      in
      let ok =
        List.for_all
          (fun m ->
            let seq = Orchestrator.survey cloud ~module_name:m in
            let par = Orchestrator.survey ~config:par_cfg cloud ~module_name:m in
            let eng =
              match
                (Mc_engine.run engine (Mc_engine.Survey { module_name = m }))
                  .Mc_engine.r_outcome
              with
              | Mc_engine.Surveyed s -> s
              | _ -> assert false
            in
            survey_key seq = survey_key par && survey_key seq = survey_key eng)
          [ "hal.dll"; "disk.sys"; "hello.sys"; "dummy.sys" ]
      in
      Mc_engine.drain engine;
      Mc_parallel.Pool.shutdown pool;
      ok)

let prop_incremental_parity_under_dirty_writes =
  QCheck.Test.make ~count:8
    ~name:"incremental = full under random dirty patterns"
    QCheck.(triple (int_bound 100000) (int_range 5 8) (int_bound 100000))
    (fun (seed, vms, wseed) ->
      let cloud = Cloud.create ~vms ~seed:(Int64.of_int seed) () in
      let inc = Orchestrator.create_incremental () in
      let incr_cfg =
        Orchestrator.Config.with_incremental inc Orchestrator.Config.default
      in
      let modules = [ "hal.dll"; "disk.sys" ] in
      (* Prime the digest cache so the next incremental pass really
         exercises dirty-page invalidation rather than a cold start. *)
      List.iter
        (fun m ->
          ignore (Orchestrator.survey ~config:incr_cfg cloud ~module_name:m))
        modules;
      (* Random guest writes into random module images, each replayed at
         the same image offset on a random subset of the pool (at
         different load bases): some land in hashed ranges (headers,
         .text — a deviation, often shared by several VMs), some in
         writable .data (unhashed — invisible). Both checkers must tell
         the same story either way, down to the last pair. *)
      let rng = Rng.create (Int64.of_int wseed) in
      for _ = 1 to 3 + Rng.int rng 6 do
        let m = List.nth modules (Rng.int rng (List.length modules)) in
        let frac = Rng.float rng 1.0 in
        let b = Char.chr (Rng.int rng 256) in
        let first = Rng.int rng vms in
        List.iter
          (fun vm ->
            if vm = first || Rng.int rng 3 = 0 then
              ignore
                (Guest_write.poke cloud ~vm ~module_name:m
                   ~at:(Guest_write.fraction frac) b))
          (List.init vms Fun.id)
      done;
      List.for_all
        (fun m ->
          let full = Orchestrator.survey cloud ~module_name:m in
          let incr = Orchestrator.survey ~config:incr_cfg cloud ~module_name:m in
          (* An escalated survey byte-compares one copy per print class,
             plus every same-cohort pair the representatives leave in
             different groups, so everything but [pairwise_matches]
             equals the full survey's. A pair may differ only across two
             print classes of one agreement class, where it carries the
             representatives' result: Algorithm 2 can reconcile a real
             difference for one pair of load bases only (test_merkle
             "coincidental match"). *)
          let json s = Mc_util.Json.to_string (Report.survey_to_json s) in
          let without_pairs s = json { s with Report.pairwise_matches = [] } in
          let root vm = Orchestrator.merkle_root inc cloud ~vm ~module_name:m in
          let one_class v u =
            List.exists
              (fun c -> List.mem v c && List.mem u c)
              full.Report.agreement_classes
          in
          let same_pair ((v, u), a) ((v', u'), b) =
            (v, u) = (v', u') && (a = b || (one_class v u && root v <> root u))
          in
          survey_key full = survey_key incr
          && without_pairs full = without_pairs incr
          && List.length full.Report.pairwise_matches
             = List.length incr.Report.pairwise_matches
          && List.for_all2 same_pair full.Report.pairwise_matches
               incr.Report.pairwise_matches)
        modules)

let () =
  Alcotest.run "properties"
    [
      ( "pe",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pe_roundtrip; prop_loader_diff_is_relocs ] );
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_clean_pool_intact; prop_infection_detected;
            prop_searcher_agrees_with_guest;
          ] );
      ( "faults",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_zero_rate_bit_identical; prop_detection_under_transient_faults;
          ] );
      ( "vote",
        List.map QCheck_alcotest.to_alcotest [ prop_cohort_deviants_reference ]
      );
      ( "render",
        List.map QCheck_alcotest.to_alcotest [ prop_table_total; prop_chart_total ]
      );
      ( "json",
        List.map QCheck_alcotest.to_alcotest [ prop_json_string_roundtrip ] );
      ( "simulation",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_survey_mode_parity;
            prop_incremental_parity_under_dirty_writes;
          ] );
    ]
