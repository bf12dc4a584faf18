(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (plus the ablations/extensions from DESIGN.md) and
   runs Bechamel micro-benchmarks of the real OCaml implementation.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Paper evaluation: detection experiments (§V-B)                      *)
(* ------------------------------------------------------------------ *)

let detection () =
  section
    "Detection experiments (paper §V-B, experiments 1-4, plus extensions: \
     DKOM hiding, fn-pointer hook)";
  print_string
    (Mc_harness.Render.detection_table (Mc_harness.Scenario.run_all ~vms:15 ()))

(* ------------------------------------------------------------------ *)
(* Paper evaluation: runtime figures (§V-C)                            *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Fig 7: runtime vs #VMs, guests mostly idle (http.sys, 8 cores)";
  let f7 = Mc_harness.Figures.fig7_idle ~max_vms:14 () in
  print_string (Mc_harness.Render.fig_series ~title:"Fig 7 (idle)" f7);
  let slope, _ =
    Mc_util.Stats.linear_fit
      (List.map
         (fun (p : Mc_harness.Figures.fig_point) ->
           (float_of_int p.n_vms, p.total_ms))
         f7)
  in
  Printf.printf
    "linear fit: %.2f ms per additional VM, r^2 = %.4f (paper: steady \
     linear growth, Module-Searcher dominant)\n"
    slope
    (Mc_util.Stats.r_squared
       (List.map
          (fun (p : Mc_harness.Figures.fig_point) ->
            (float_of_int p.n_vms, p.total_ms))
          f7));

  section "Fig 8: runtime vs #VMs, guests under HeavyLoad (8 cores)";
  let f8 = Mc_harness.Figures.fig8_loaded ~max_vms:14 () in
  print_string (Mc_harness.Render.fig_series ~title:"Fig 8 (loaded)" f8);
  let total n =
    (List.find (fun (p : Mc_harness.Figures.fig_point) -> p.n_vms = n) f8)
      .total_ms
  in
  Printf.printf
    "per-VM increment before saturation: %.1f ms; after: %.1f ms (paper: \
     nonlinear growth once loaded VMs exceed the cores)\n"
    ((total 6 -. total 3) /. 3.0)
    ((total 14 -. total 11) /. 3.0);

  section "Fig 9: in-guest resource impact during introspection";
  print_string (Mc_harness.Render.fig9 (Mc_harness.Figures.fig9_guest_impact ()))

(* ------------------------------------------------------------------ *)
(* Ablations and extensions                                            *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "X1a: Algorithm 2 heuristic vs reloc-guided adjustment (alignment)";
  print_string
    (Mc_harness.Render.ablation_table (Mc_harness.Figures.alignment_ablation ()));
  Printf.printf
    "(both exact at both alignments: for pure relocation differences the \
     bases' first differing byte\n always coincides with the slots' first \
     differing byte — see DESIGN.md)\n";

  section "X1b: cross-module pointers in a hashed section (what breaks RVA \
           adjustment)";
  print_string
    (Mc_harness.Render.cross_pointer_table
       (Mc_harness.Figures.cross_pointer_ablation ()));

  section "X2: parallel Dom0 access (paper §V-C: proposed enhancement)";
  print_string
    (Mc_harness.Render.parallel_table (Mc_harness.Figures.parallel_sweep ()));

  section "X3: baseline comparison (SVV / signed-hash DB / LKIM / ModChecker)";
  print_string
    (Mc_harness.Render.baseline_table (Mc_harness.Figures.baseline_table ()));

  section "X4: survey vote — pairwise (paper, O(t^2)) vs Merkle prints \
           (extension, O(t) until prints disagree) at 15 VMs";
  print_string
    (Mc_harness.Render.strategy_table
       (Mc_harness.Figures.survey_strategy_table ()));

  section "X5: patrol service — sweep interval vs time-to-detect vs Dom0 duty";
  print_string
    (Mc_harness.Render.patrol_table (Mc_harness.Figures.patrol_tradeoff ()));

  section "X8: incremental checking — full vs dirty-page-driven sweeps on an \
           idle pool";
  print_string
    (Mc_harness.Render.incremental_table
       (Mc_harness.Figures.incremental_steady_state ()));

  section "X13: O(dirty) Merkle refresh — the print-building sweep vs \
           steady sweeps while every guest keeps dirtying k .text pages";
  let rows = Mc_harness.Figures.merkle_dirty_sweep () in
  print_string (Mc_harness.Render.merkle_table rows);
  let one =
    List.find (fun r -> r.Mc_harness.Figures.mk_dirty = 1) rows
  in
  let ok = one.Mc_harness.Figures.mk_speedup >= 5.0 in
  Printf.printf
    "1-dirty-page steady state: %.1fx cheaper than building the prints %s\n"
    one.Mc_harness.Figures.mk_speedup
    (if ok then "(floor is 5x: OK)" else "(REGRESSION: floor is 5x)");
  if not ok then exit 1;
  (* Counter-level guard on the same claim: a one-leaf refresh must meter
     one page of hashing (plus its root path), never the whole section. *)
  let data = Bytes.make (64 * 4096) 'x' in
  let t = Modchecker.Checker.merkle_of_bytes data in
  Bytes.set data 0 'y';
  let m = Mc_hypervisor.Meter.create () in
  Mc_hypervisor.Meter.set_phase m Mc_hypervisor.Meter.Checker;
  ignore (Modchecker.Checker.merkle_rehash ~meter:m t data ~dirty:[ 0 ]);
  let c = Mc_hypervisor.Meter.get m Mc_hypervisor.Meter.Checker in
  if c.Mc_hypervisor.Meter.bytes_hashed <> 4096 then begin
    Printf.printf
      "REGRESSION: 1-leaf refresh metered %d bytes hashed (expected 4096)\n"
      c.Mc_hypervisor.Meter.bytes_hashed;
    exit 1
  end;

  section "X14: event-driven write-trap checking — idle cost and \
           time-to-detect vs polling";
  let rows = Mc_harness.Figures.events_tradeoff () in
  print_string (Mc_harness.Render.events_table rows);
  let poll30 =
    List.find (fun r -> r.Mc_harness.Figures.ev_label = "poll 30s") rows
  in
  let trap =
    List.find (fun r -> r.Mc_harness.Figures.ev_label = "event-driven") rows
  in
  (* The two acceptance floors: traps must idle at least 10x cheaper
     than 30 s polling, and detect at least 10x faster. *)
  let cost_ok =
    trap.Mc_harness.Figures.ev_steady_cpu_s
    <= poll30.Mc_harness.Figures.ev_steady_cpu_s /. 10.0
  in
  let ttd_ok =
    trap.Mc_harness.Figures.ev_ttd_s
    <= poll30.Mc_harness.Figures.ev_ttd_s /. 10.0
  in
  Printf.printf
    "trap steady idle cost %.4fs vs poll-30s %.4fs %s\n"
    trap.Mc_harness.Figures.ev_steady_cpu_s
    poll30.Mc_harness.Figures.ev_steady_cpu_s
    (if cost_ok then "(floor is 10x: OK)" else "(REGRESSION: floor is 10x)");
  Printf.printf "trap time-to-detect %.3fs vs poll-30s %.3fs %s\n"
    trap.Mc_harness.Figures.ev_ttd_s poll30.Mc_harness.Figures.ev_ttd_s
    (if ttd_ok then "(floor is 10x: OK)" else "(REGRESSION: floor is 10x)");
  if not (cost_ok && ttd_ok) then exit 1;

  section "X16: evasive TOCTOU adversary — detection probability vs \
           patrol cadence";
  let rows = Mc_harness.Figures.evasion_detection () in
  print_string (Mc_harness.Render.evasion_table rows);
  let poll30 =
    List.find (fun r -> r.Mc_harness.Figures.ez_label = "poll 30s") rows
  in
  let trap =
    List.find (fun r -> r.Mc_harness.Figures.ez_label = "event-driven") rows
  in
  (* Acceptance floors: the restore write itself traps, so event-driven
     detection must be (near) certain, while 30 s polling against a
     5 s dwell sits near the dwell-ratio floor and must NOT look
     reliable — if it does, the adversary model has gone soft. *)
  let trap_ok = trap.Mc_harness.Figures.ez_detect_p >= 0.99 in
  let poll_ok = poll30.Mc_harness.Figures.ez_detect_p <= 0.5 in
  Printf.printf "event-driven detection probability %.3f %s\n"
    trap.Mc_harness.Figures.ez_detect_p
    (if trap_ok then "(floor is 0.99: OK)" else "(REGRESSION: floor is 0.99)");
  Printf.printf "poll-30s detection probability %.3f %s\n"
    poll30.Mc_harness.Figures.ez_detect_p
    (if poll_ok then "(ceiling is 0.5: OK)"
     else "(REGRESSION: polling should sit near dwell/period)");
  if not (trap_ok && poll_ok) then exit 1;

  section "X9: detection under injected transient VMI faults (bounded \
           retries, quorum-aware verdicts)";
  print_string
    (Mc_harness.Render.fault_table (Mc_harness.Figures.fault_sweep ()))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the real implementation                *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let http = Mc_pe.Catalog.image "http.sys" in
  let file = http.Mc_pe.Catalog.file in
  let base1 = 0xF8400000 and base2 = 0xF8560000 in
  let mem1 =
    match Mc_winkernel.Loader.simulate_load file ~base:base1 with
    | Ok m -> m
    | Error e -> failwith (Mc_winkernel.Loader.error_to_string e)
  in
  let mem2 =
    match Mc_winkernel.Loader.simulate_load file ~base:base2 with
    | Ok m -> m
    | Error e -> failwith (Mc_winkernel.Loader.error_to_string e)
  in
  let arts1 =
    match Modchecker.Parser.artifacts mem1 with Ok a -> a | Error e -> failwith e
  in
  let arts2 =
    match Modchecker.Parser.artifacts mem2 with Ok a -> a | Error e -> failwith e
  in
  let text1 =
    (Option.get (Modchecker.Artifact.find arts1 (Modchecker.Artifact.Section_data ".text")))
      .Modchecker.Artifact.data
  in
  let text2 =
    (Option.get (Modchecker.Artifact.find arts2 (Modchecker.Artifact.Section_data ".text")))
      .Modchecker.Artifact.data
  in
  let cloud = Mc_hypervisor.Cloud.create ~vms:3 ~cores:8 () in
  let vmi =
    Mc_vmi.Vmi.init (Mc_hypervisor.Cloud.vm cloud 0) Mc_vmi.Symbols.windows_xp_sp2
  in
  [
    (* Fig 7/8 cost drivers, benched on the real code: *)
    Test.make ~name:"md5/http.sys-file"
      (Staged.stage (fun () -> Mc_md5.Md5.digest_bytes file));
    Test.make ~name:"parser/algorithm1"
      (Staged.stage (fun () ->
           match Modchecker.Parser.artifacts mem1 with
           | Ok a -> a
           | Error e -> failwith e));
    Test.make ~name:"rva/algorithm2-.text"
      (Staged.stage (fun () ->
           let d1 = Bytes.copy text1 and d2 = Bytes.copy text2 in
           Modchecker.Rva.adjust_pair ~base1 ~base2 d1 d2));
    Test.make ~name:"checker/pair-compare"
      (Staged.stage (fun () ->
           Modchecker.Checker.compare_pair ~base1 arts1 ~base2 arts2));
    Test.make ~name:"searcher/walk+copy-http.sys"
      (Staged.stage (fun () ->
           Mc_vmi.Vmi.flush_cache vmi;
           match Modchecker.Searcher.fetch vmi ~name:"http.sys" with
           | Some (_, b) -> b
           | None -> failwith "module not found"));
    Test.make ~name:"md5/to-hex"
      (Staged.stage
         (let d = Mc_md5.Md5.digest_bytes file in
          fun () -> Mc_md5.Md5.to_hex d));
    Test.make ~name:"merkle/of-bytes-.text"
      (Staged.stage (fun () -> Modchecker.Checker.merkle_of_bytes text1));
    Test.make ~name:"merkle/rehash-1-leaf"
      (Staged.stage
         (let t = Modchecker.Checker.merkle_of_bytes text1 in
          fun () -> Modchecker.Checker.merkle_rehash t text1 ~dirty:[ 0 ]));
    Test.make ~name:"pe/build-dummy.sys"
      (Staged.stage (fun () ->
           Mc_pe.Catalog.build (Mc_pe.Catalog.generate "dummy.sys")));
    Test.make ~name:"loader/simulate-load-http.sys"
      (Staged.stage (fun () ->
           match Mc_winkernel.Loader.simulate_load file ~base:base1 with
           | Ok m -> m
           | Error e -> failwith (Mc_winkernel.Loader.error_to_string e)));
  ]

let micro () =
  section "Bechamel micro-benchmarks (real OCaml implementation, this host)";
  let tests = Test.make_grouped ~name:"modchecker" ~fmt:"%s %s" (micro_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  print_string
    (Mc_util.Table.render
       ~header:[ "benchmark"; "time/run" ]
       (List.map
          (fun (name, ns) ->
            let display =
              if Float.is_nan ns then "n/a"
              else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
              else Printf.sprintf "%.1f ns" ns
            in
            [ name; display ])
          rows))

(* ------------------------------------------------------------------ *)

let real_parallel () =
  section "X2 (real): wall-clock parallel checking on this host";
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "host exposes %d core(s) to this process%s\n" cores
    (if cores <= 1 then
       " — no real speedup is possible here; the X2 table above gives the \
        scheduler-model projection for a multi-core Dom0"
     else "");
  let cloud = Mc_hypervisor.Cloud.create ~vms:15 ~cores:8 () in
  let time_once workers =
    let mode =
      if workers = 1 then Modchecker.Orchestrator.Sequential
      else Modchecker.Orchestrator.Parallel (Mc_parallel.Pool.create workers)
    in
    let t0 = Unix.gettimeofday () in
    (match
       Modchecker.Orchestrator.check_module
         ~config:Modchecker.Orchestrator.Config.(default |> with_mode mode)
         cloud ~target_vm:0 ~module_name:"http.sys"
     with
    | Ok _ -> ()
    | Error e -> failwith e);
    let dt = Unix.gettimeofday () -. t0 in
    (match mode with
    | Modchecker.Orchestrator.Parallel pool -> Mc_parallel.Pool.shutdown pool
    | Modchecker.Orchestrator.Sequential -> ());
    dt
  in
  let base = time_once 1 in
  let rows =
    List.map
      (fun w ->
        let dt = if w = 1 then base else time_once w in
        [
          string_of_int w;
          Printf.sprintf "%.2f ms" (dt *. 1e3);
          Printf.sprintf "%.2fx" (base /. dt);
        ])
      [ 1; 2; 4; 8 ]
  in
  print_string
    (Mc_util.Table.render ~header:[ "workers"; "wall"; "speedup" ] rows)

(* ------------------------------------------------------------------ *)
(* X10: engine throughput — overlapping batches vs the one-shot loop    *)
(* ------------------------------------------------------------------ *)

let engine_throughput () =
  section
    "X10: engine throughput — a batch of overlapping survey requests \
     through one Mc_engine vs the same batch as independent one-shot runs \
     (virtual CPU seconds from the meters)";
  print_string
    (Mc_harness.Render.engine_table
       (Mc_harness.Figures.engine_throughput ~vms:8 ()));
  (* And the wall-clock view on this host: N distinct checks through the
     sharded service vs the same N sequentially. Sized to the host — on
     a single exposed core the shards only add dispatch overhead, as
     with X2 above. *)
  let cores = Domain.recommended_domain_count () in
  let shards = max 1 (min 4 cores) in
  Printf.printf "\nhost exposes %d core(s); engine sized to %d shard(s)%s\n"
    cores shards
    (if cores <= 1 then
       " — expect parity at best here; the table above prices the \
        metered-work saving, which is host-independent"
     else "");
  let vms = 10 in
  let n = vms in
  let cloud = Mc_hypervisor.Cloud.create ~vms ~cores:8 () in
  let t0 = Unix.gettimeofday () in
  for vm = 0 to n - 1 do
    match
      Modchecker.Orchestrator.check_module cloud ~target_vm:vm
        ~module_name:"http.sys"
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let seq = Unix.gettimeofday () -. t0 in
  let engine = Mc_engine.create ~shards cloud in
  let t0 = Unix.gettimeofday () in
  let cells =
    List.init n (fun vm ->
        match
          Mc_engine.submit engine
            (Mc_engine.Check { vm; module_name = "http.sys" })
        with
        | Ok c -> c
        | Error r -> failwith (Mc_engine.rejection_message r))
  in
  List.iter (fun c -> ignore (Mc_parallel.Deferred.await c)) cells;
  let eng = Unix.gettimeofday () -. t0 in
  Mc_engine.drain engine;
  Printf.printf
    "\nwall-clock, %d distinct checks: one-shot loop %.2f ms, engine (%d \
     shard(s)) %.2f ms, %.2fx\n"
    n (seq *. 1e3) shards (eng *. 1e3) (seq /. eng)

(* ------------------------------------------------------------------ *)
(* X12: federation scale — detection parity and cost across hosts      *)
(* ------------------------------------------------------------------ *)

let federation_scale () =
  section
    "X12: federation scale — one hooked VM in a growing fleet of hosts \
     (three kernel builds cycled across them); detection must stay exact, \
     version-skew false positives zero, total CPU linear in hosts, \
     critical path flat";
  print_string
    (Mc_harness.Render.federation_table
       (Mc_harness.Figures.federation_scale ()))

(* ------------------------------------------------------------------ *)
(* X15: million-request traffic replay over the serving stack          *)
(* ------------------------------------------------------------------ *)

let traffic_replay () =
  section
    "X15: million-request traffic replay — requests/s vs shards vs coalesce \
     rate, every response attested into a hash-chained ledger \
     (MODCHECKER_X15_REQUESTS overrides the volume for a quick pass)";
  let total =
    match Sys.getenv_opt "MODCHECKER_X15_REQUESTS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 3 -> n
        | _ -> 1_000_000)
    | None -> 1_000_000
  in
  let per_row = (total + 2) / 3 in
  let rows =
    Mc_harness.Figures.replay_throughput ~shard_counts:[ 1; 2; 4 ]
      ~requests:per_row ()
  in
  print_string (Mc_harness.Render.replay_table rows);
  let row n = List.find (fun r -> r.Mc_harness.Figures.rp_shards = n) rows in
  let r1 = row 1 and r4 = row 4 in
  let scale = r4.Mc_harness.Figures.rp_rps /. r1.Mc_harness.Figures.rp_rps in
  let scale_ok = scale >= 2.0 in
  let ledger_ok =
    List.for_all (fun r -> r.Mc_harness.Figures.rp_ledger_ok) rows
  in
  Printf.printf
    "%d requests replayed; 1->4 shard virtual throughput scaling %.2fx %s\n"
    (3 * per_row) scale
    (if scale_ok then "(floor is 2x: OK)" else "(REGRESSION: floor is 2x)");
  Printf.printf "every row's ledger chain verified: %s\n"
    (if ledger_ok then "OK" else "FAILED");
  (* Offline tamper evidence on a file, the way an auditor meets it:
     stream a session's ledger to disk, verify, flip one byte, verify
     again. *)
  let path = Filename.temp_file "modchecker_x15" ".ledger" in
  let oc = open_out path in
  let ledger = Mc_ledger.create ~sink:(output_string oc) () in
  let o = Mc_simtest.Traffic.replay ~ledger ~seed:2015L ~requests:2000 () in
  close_out oc;
  let clean =
    match Mc_ledger.verify_file ~expect_head:(Mc_ledger.head ledger) path with
    | Ok s -> s.Mc_ledger.sum_entries = o.Mc_simtest.Traffic.to_responses
    | Error _ -> false
  in
  let fd = open_out_gen [ Open_wronly ] 0o600 path in
  seek_out fd 200;
  output_char fd '!';
  close_out fd;
  let tampered_caught =
    match Mc_ledger.verify_file path with Ok _ -> false | Error _ -> true
  in
  Printf.printf "ledger file verify: clean %s, 1-byte corruption %s\n"
    (if clean then "OK" else "FAILED")
    (if tampered_caught then "detected" else "MISSED");
  Sys.remove path;
  if not (scale_ok && ledger_ok && clean && tampered_caught) then exit 1

(* ------------------------------------------------------------------ *)
(* Telemetry snapshot of everything the harness just ran               *)
(* ------------------------------------------------------------------ *)

let telemetry_snapshot () =
  section
    "Telemetry snapshot (spans, counters, histograms accumulated across \
     the runs above)";
  print_string (Mc_telemetry.Export.summary (Mc_telemetry.Registry.snapshot ()))

let () =
  Printf.printf
    "ModChecker reproduction benchmark harness\n\
     simulated testbed: Xen-like host, 8 cores, 15 Windows-XP-like VM \
     clones (cf. paper §V-A)\n";
  Mc_telemetry.Registry.set_enabled true;
  detection ();
  figures ();
  ablations ();
  real_parallel ();
  engine_throughput ();
  federation_scale ();
  traffic_replay ();
  (* Micro-benchmarks loop hot code millions of times; keep the registry
     out of their inner loops. *)
  Mc_telemetry.Registry.set_enabled false;
  micro ();
  telemetry_snapshot ();
  print_newline ()
