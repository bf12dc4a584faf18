(* Measurement helpers shared by the three workloads: wall and CPU clocks,
   quantiles, peak RSS, meter totals, host facts, and the result record
   every workload returns. *)

module Meter = Mc_hypervisor.Meter
module Tel = Mc_telemetry.Registry

let now = Unix.gettimeofday

(* User + system seconds of the whole process, every domain included: the
   Dom0 CPU a run costs. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ -> Mc_util.Stats.percentile (100.0 *. q) xs

let median xs = quantile 0.5 xs

let ratio num den = if den = 0.0 then 0.0 else num /. den

let iratio num den = ratio (float_of_int num) (float_of_int den)

(* Peak resident set size of this process, from /proc (Linux). *)
let max_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* [per_call ~reps f] times [reps] batches of calls to [f] and returns the
   median seconds per call. A batch runs [f] often enough to last about
   0.2 ms, so microsecond calls are not lost in the clock's resolution. *)
let per_call ~reps f =
  let t0 = now () in
  f ();
  let one = Float.max 1e-7 (now () -. t0) in
  let batch = max 1 (int_of_float (2e-4 /. one)) in
  let samples =
    List.init reps (fun _ ->
        let t0 = now () in
        for _ = 1 to batch do
          f ()
        done;
        (now () -. t0) /. float_of_int batch)
  in
  median samples

(* Sum of one meter counter (e.g. ["pages_mapped"]) over every phase of
   every meter. *)
let meter_count field meters =
  List.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc phase ->
          acc + List.assoc field (Meter.pairs (Meter.get m phase)))
        acc
        [ Meter.Searcher; Meter.Parser; Meter.Checker ])
    0 meters

(* All counters of all meters, summed per [phase.counter] key: the exact
   work a run did, which must repeat for a repeated seed. *)
let meter_pairs meters =
  List.concat_map
    (fun phase ->
      List.map
        (fun (k, _) ->
          ( Meter.phase_key phase ^ "." ^ k,
            List.fold_left
              (fun acc m ->
                acc + List.assoc k (Meter.pairs (Meter.get m phase)))
              0 meters ))
        (Meter.pairs (Meter.get (Meter.create ()) phase)))
    [ Meter.Searcher; Meter.Parser; Meter.Checker ]

let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Tel.snap_counters)

(* Summed wall seconds of the finished spans with one of [names]. *)
let span_seconds snap names =
  List.fold_left
    (fun acc (sp : Mc_telemetry.Span.t) ->
      if List.mem sp.Mc_telemetry.Span.name names then
        acc +. Mc_telemetry.Span.wall_duration sp
      else acc)
    0.0 snap.Tel.snap_spans

(* The spans the orchestrator opens around its layer calls. *)
let layer_spans = [ "searcher"; "parser"; "checker" ]

(* [setup_median ~reps setup teardown] runs [setup] [reps] times, tearing
   down all but the last, and returns that last state with the median
   set-up seconds. A full compaction before each keeps earlier rounds'
   garbage out of both the timing and the peak RSS. *)
let setup_median ~reps setup teardown =
  let rec go i times =
    Gc.compact ();
    let t0 = now () in
    let st = setup () in
    let dt = now () -. t0 in
    if i < reps then begin
      teardown st;
      go (i + 1) (dt :: times)
    end
    else (st, median (dt :: times))
  in
  go 1 []

(* One measured stretch of a workload. *)
type phase = {
  ph_attempted : int;
  ph_failed : int;
  ph_wall_s : float;
  ph_cpu_s : float;
  ph_latencies_s : float list;  (** One per completed op. *)
}

(* The tail latency of a phase. It does not repeat within a tenth from run
   to run on a shared 2-core host (check-cold sees ~500 calls in 20 s, and
   patrol-churn's tail is its few restores and hooks), so it is reported
   per layer, from the untraced slices of a traced run. *)
let latency_p99_ms ph = quantile 0.99 ph.ph_latencies_s *. 1e3

(* Untimed seconds of each workload before measuring: the heap regrows
   after set-up's compactions and reaches its steady size. *)
let warmup_s = 1.0

let throughput ph = ratio (float_of_int (ph.ph_attempted - ph.ph_failed)) ph.ph_wall_s

let merge_phases phs =
  let sum f = List.fold_left (fun acc ph -> acc + f ph) 0 phs
  and fsum f = List.fold_left (fun acc ph -> acc +. f ph) 0.0 phs in
  {
    ph_attempted = sum (fun ph -> ph.ph_attempted);
    ph_failed = sum (fun ph -> ph.ph_failed);
    ph_wall_s = fsum (fun ph -> ph.ph_wall_s);
    ph_cpu_s = fsum (fun ph -> ph.ph_cpu_s);
    ph_latencies_s = List.concat_map (fun ph -> ph.ph_latencies_s) phs;
  }

(* [alternate ~seconds slice] splits a traced run into slices of about a
   second, alternately untraced and traced, so drift over the run (heap
   growth, cache warm-up, host load) falls on both sides alike. The
   registry is reset first and enabled only during traced slices; the
   caller snapshots it afterwards. Returns the untraced and the traced
   slices' results. *)
let alternate ~seconds slice =
  let pairs = max 1 (int_of_float (seconds /. 2.0)) in
  let dt = seconds /. float_of_int (2 * pairs) in
  Tel.reset ();
  let rec go i plain traced =
    if i = pairs then (List.rev plain, List.rev traced)
    else begin
      Tel.set_enabled false;
      let p = slice ~seconds:dt in
      Tel.set_enabled true;
      let t = slice ~seconds:dt in
      Tel.set_enabled false;
      go (i + 1) (p :: plain) (t :: traced)
    end
  in
  go 0 [] []

(* Telemetry's own cost: extra wall time per op with the registry on,
   e.g. 0.05 = 5 % overhead. *)
let overhead ~plain ~traced = ratio (throughput plain) (throughput traced) -. 1.0

(* The end-to-end metrics every workload reports from an untraced phase. *)
let end_to_end ph ~setup_s =
  let lat = List.map (fun s -> s *. 1e3) ph.ph_latencies_s in
  [
    ("throughput_rps", throughput ph);
    ("latency_p50_ms", quantile 0.5 lat);
    ("cpu_ms_per_op", 1e3 *. ratio ph.ph_cpu_s (float_of_int ph.ph_attempted));
    ("max_rss_mb", max_rss_mb ());
    ("setup_s", setup_s);
  ]

let units =
  [
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("max_rss_mb", "MB");
    ("setup_s", "s");
    ("serve.unattributed_p50_ms", "ms");
    ("serve.busy_ratio", "ratio");
    ("engine.wait_p50_ms", "ms");
    ("engine.service_p50_ms", "ms");
    ("engine.service_p90_ms", "ms");
    ("engine.coalesce_ratio", "ratio");
    ("engine.shard_busy_share", "ratio");
    ("pool.roundtrip_us", "us");
    ("wire.parse_us", "us");
    ("wire.encode_us", "us");
    ("ledger.append_us", "us");
    ("ledger.verify_mb_s", "MB/s");
    ("orchestrator.warm_check_ms", "ms");
    ("orchestrator.fast_path_ratio", "ratio");
    ("orchestrator.unattributed_share", "ratio");
    ("digest_cache.hit_ratio", "ratio");
    ("digest_cache.stale_ratio", "ratio");
    ("searcher.fetch_ms", "ms");
    ("searcher.copy_mb_s", "MB/s");
    ("vmi.pages_mapped_per_op", "count/op");
    ("parser.artifacts_ms", "ms");
    ("rva.adjust_pair_ms", "ms");
    ("checker.compare_pair_ms", "ms");
    ("md5.mb_s", "MB/s");
    ("checker.merkle_rehash_us", "us");
    ("merkle.leaves_rehashed_per_react", "count/op");
    ("meter.bytes_hashed_per_op", "B/op");
    ("patrol.traps_per_react", "count/op");
    ("patrol.surveys_per_react", "count/op");
    ("patrol.detect_p50_ms", "ms");
    ("telemetry.overhead_ratio", "ratio");
  ]

let end_to_end_names =
  [ "throughput_rps"; "latency_p50_ms"; "cpu_ms_per_op"; "max_rss_mb"; "setup_s" ]

let per_layer_names =
  List.filter (fun (n, _) -> not (List.mem n end_to_end_names)) units
  |> List.map fst

(* What a workload run hands back to the command line. [r_metrics] holds
   only the metrics the workload's own path exercises; the command line
   reports the rest as 0 (the layer does no work on it). *)
type result = {
  r_attempted : int;
  r_failed : int;
  r_metrics : (string * float) list;
  r_engine_shards : int;
  r_notes : string list;  (** Oracle failures, first few. *)
}

(* Bounded list of oracle complaints for the report. *)
let note notes msg = if List.length !notes < 10 then notes := msg :: !notes

let md5_hex s = Mc_md5.Md5.to_hex (Mc_md5.Md5.digest_string s)

(* Temporary files live in a directory of the working tree, removed when
   the run ends. *)
let tmp_dir = ".perfbench-tmp"

let tmp_count = ref 0

let tmp_file name =
  if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
  incr tmp_count;
  Filename.concat tmp_dir
    (Printf.sprintf "%d-%d-%s" (Unix.getpid ()) !tmp_count name)

let cleanup_tmp () =
  if Sys.file_exists tmp_dir then begin
    let prefix = Printf.sprintf "%d-" (Unix.getpid ()) in
    Array.iter
      (fun f ->
        if String.starts_with ~prefix f then
          Sys.remove (Filename.concat tmp_dir f))
      (Sys.readdir tmp_dir);
    if Sys.readdir tmp_dir = [||] then Sys.rmdir tmp_dir
  end

let func_names module_name =
  (Mc_pe.Catalog.image module_name).Mc_pe.Catalog.built_source.Mc_pe.Catalog.funcs
  |> Array.map (fun f -> f.Mc_pe.Catalog.fn_name)

(* Inline-hook the [pick]-th function of the module (modulo its function
   count) on [vm]. A function without a code cave large enough for the
   payload cannot be hooked; the next one is tried, so a seed always
   stages exactly one infection. *)
let stage_hook cloud ~vm ~module_name ~pick =
  let funcs = func_names module_name in
  let n = Array.length funcs in
  let rec attempt i =
    if i = n then
      failwith (Printf.sprintf "no hookable function in %s" module_name)
    else
      let func = funcs.((pick + i) mod n) in
      match Mc_malware.Infect.inline_hook ~module_name ~func cloud ~vm with
      | Ok _ -> ()
      | Error _ -> attempt (i + 1)
  in
  attempt 0

let engine_shards engine =
  Array.length (Mc_engine.stats engine).Mc_engine.st_per_shard_serviced

(* Shard count of an engine started with library defaults, as
   [Engine.stats] reports it — recorded by workloads that bypass the
   engine, so a change of defaults still shows in their results. *)
let default_engine_shards () =
  let engine = Mc_engine.create (Mc_hypervisor.Cloud.create ~vms:2 ()) in
  let n = engine_shards engine in
  Mc_engine.drain engine;
  n
