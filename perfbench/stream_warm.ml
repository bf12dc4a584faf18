(* stream-warm: one Serve session over a warmed Merkle engine.

   Why this workload: after one survey per catalog module, almost every
   request is answered from the Merkle fast path (Fresh staleness probes,
   no hashing), so the load falls on the engine's queue and dispatch, the
   Mc_parallel handoff, the Wire codec and the ledger — the checking
   layers sit nearly idle. It is the workload on which a faster service
   layer shows and a faster checker must not. The guest pool is never
   written, so every answer must be [intact].

   Closed loop: Serve pulls the next line only when its in-flight window
   (library default) has room, from a single generator. *)

open Common
module Cloud = Mc_hypervisor.Cloud
module Config = Modchecker.Orchestrator.Config
module Engine = Mc_engine
module Wire = Mc_engine.Wire
module Serve = Mc_engine.Serve
module Traffic = Mc_simtest.Traffic

let profile = Traffic.default_profile

type state = {
  cloud : Cloud.t;
  engine : Engine.t;
  lines : unit -> string option;  (** The endless seeded request stream. *)
}

let traffic_seed seed = Int64.add (Int64.of_int seed) 1L

let fingerprint ~seed =
  let next = Traffic.lines ~profile ~seed:(traffic_seed seed) ~n:1000 () in
  let buf = Buffer.create 32_768 in
  let rec go () =
    match next () with
    | Some l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n';
        go ()
    | None -> ()
  in
  go ();
  md5_hex (Buffer.contents buf)

let setup ~seed =
  let cloud = Cloud.create ~vms:profile.Traffic.p_vms ~seed:(Int64.of_int seed) () in
  let engine = Engine.create ~config:(Config.with_merkle true Config.default) cloud in
  List.iter
    (fun module_name -> ignore (Engine.run engine (Engine.Survey { module_name })))
    profile.Traffic.p_modules;
  ignore (Engine.run engine Engine.Lists);
  {
    cloud;
    engine;
    lines = Traffic.lines ~profile ~seed:(traffic_seed seed) ~n:max_int ();
  }

let teardown st = Engine.drain st.engine


(* What one session observed, beyond the common phase record. *)
type session = {
  ss_phase : phase;
  ss_busy : int;
  ss_unattributed_s : float list;
      (** Client latency minus engine wait and service, per response. *)
  ss_wait_s : float list;
  ss_service_s : float list;
  ss_meter_pairs : (string * int) list;  (** Summed [rs_meter]. *)
  ss_samples : (string * Wire.reply) list;  (** First lines and replies. *)
  ss_ledger_file : string;
  ss_submitted : int;  (** Engine stats over the session. *)
  ss_coalesced : int;
  ss_busy_s : float;  (** Service seconds, summed over shards. *)
}

let max_samples = 200

let session st ~seconds ~notes =
  let ledger_file = tmp_file "stream.ledger" in
  let oc = open_out_bin ledger_file in
  let ledger = Mc_ledger.create ~sink:(output_string oc) () in
  let handed = Hashtbl.create 64 in
  let issued = ref 0 in
  let intact = ref 0 and responses = ref 0 and busy = ref 0 in
  let latencies = ref [] and unattributed = ref [] in
  let waits = ref [] and services = ref [] in
  let meter = Hashtbl.create 16 in
  let samples = ref [] in
  let stats0 = Engine.stats st.engine in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let next () =
    if now () >= deadline then None
    else
      match st.lines () with
      | None -> None
      | Some line ->
          Hashtbl.replace handed !issued (now (), line);
          incr issued;
          Some line
  in
  let emit reply =
    match reply with
    | Wire.Resp r ->
        let t = now () in
        let seq = r.Wire.rs_seq in
        let t_handed, line = Hashtbl.find handed seq in
        Hashtbl.remove handed seq;
        let lat = t -. t_handed in
        incr responses;
        latencies := lat :: !latencies;
        waits := r.Wire.rs_wait_s :: !waits;
        services := r.Wire.rs_service_s :: !services;
        unattributed :=
          (lat -. r.Wire.rs_wait_s -. r.Wire.rs_service_s) :: !unattributed;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace meter k
              (v + Option.value ~default:0 (Hashtbl.find_opt meter k)))
          r.Wire.rs_meter;
        if seq < max_samples then samples := (line, reply) :: !samples;
        let verdict = Wire.verdict_key r in
        if verdict = "intact" then incr intact
        else
          note notes
            (Printf.sprintf "seq %d %s: verdict %s, expected intact" seq
               (Wire.frame_key r.Wire.rs_frame) verdict)
    | Wire.Busy _ -> incr busy
    | Wire.Draining { d_seq } -> note notes (Printf.sprintf "seq %d: draining" d_seq)
    | Wire.Invalid { i_seq; i_error } ->
        note notes (Printf.sprintf "seq %d: invalid: %s" i_seq i_error)
  in
  let cpu0 = cpu_s () in
  ignore (Serve.run ~ledger ~emit st.engine ~next : Serve.stats);
  let wall = now () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  let stats1 = Engine.stats st.engine in
  close_out oc;
  (* Attestation oracle: the streamed chain verifies against the head the
     session ended on and holds one entry per response. *)
  let ledger_ok =
    match Mc_ledger.verify_file ~expect_head:(Mc_ledger.head ledger) ledger_file with
    | Ok sum when sum.Mc_ledger.sum_entries = !responses -> true
    | Ok sum ->
        note notes
          (Printf.sprintf "ledger holds %d entries for %d responses"
             sum.Mc_ledger.sum_entries !responses);
        false
    | Error e ->
        note notes
          (Printf.sprintf "ledger entry %d: %s" e.Mc_ledger.ve_index
             e.Mc_ledger.ve_reason);
        false
  in
  let attempted = !issued in
  let d f = f stats1 - f stats0 in
  let busy_s s = Array.fold_left ( +. ) 0.0 s.Engine.st_per_shard_busy_s in
  {
    ss_phase =
      {
        ph_attempted = attempted;
        ph_failed = (if ledger_ok then attempted - !intact else attempted);
        ph_wall_s = wall;
        ph_cpu_s = cpu;
        ph_latencies_s = !latencies;
      };
    ss_busy = !busy;
    ss_unattributed_s = !unattributed;
    ss_wait_s = !waits;
    ss_service_s = !services;
    ss_meter_pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) meter [];
    ss_samples = List.rev !samples;
    ss_ledger_file = ledger_file;
    ss_submitted = d (fun s -> s.Engine.st_submitted);
    ss_coalesced = d (fun s -> s.Engine.st_coalesced);
    ss_busy_s = busy_s stats1 -. busy_s stats0;
  }

let sum_suffix suffix sessions =
  List.fold_left
    (fun acc ss ->
      List.fold_left
        (fun acc (k, v) -> if String.ends_with ~suffix k then acc + v else acc)
        acc ss.ss_meter_pairs)
    0 sessions

(* Per-layer numbers of the traced sessions: their own per-response
   timings, the engine's stats over them, and the telemetry counters. *)
let layers st sessions ~snap =
  let ph = merge_phases (List.map (fun ss -> ss.ss_phase) sessions) in
  let all f = List.concat_map f sessions in
  let sum f = List.fold_left (fun acc ss -> acc + f ss) 0 sessions in
  let ms xs q = quantile q xs *. 1e3 in
  let submitted = sum (fun ss -> ss.ss_submitted)
  and coalesced = sum (fun ss -> ss.ss_coalesced) in
  let busy_s = List.fold_left (fun acc ss -> acc +. ss.ss_busy_s) 0.0 sessions in
  let hits = counter snap "digest_cache.hits"
  and misses = counter snap "digest_cache.misses"
  and stale = counter snap "digest_cache.stale_partial" in
  let probes = hits + misses + stale in
  let fast = counter snap "check.merkle_fast_path"
  and esc = counter snap "check.merkle_escalations" in
  let ops = ph.ph_attempted in
  [
    ("serve.unattributed_p50_ms", ms (all (fun ss -> ss.ss_unattributed_s)) 0.5);
    ("serve.busy_ratio", iratio (sum (fun ss -> ss.ss_busy)) ops);
    ("engine.wait_p50_ms", ms (all (fun ss -> ss.ss_wait_s)) 0.5);
    ("engine.service_p50_ms", ms (all (fun ss -> ss.ss_service_s)) 0.5);
    ("engine.service_p90_ms", ms (all (fun ss -> ss.ss_service_s)) 0.9);
    ("engine.coalesce_ratio", iratio coalesced (submitted + coalesced));
    ( "engine.shard_busy_share",
      ratio busy_s (ph.ph_wall_s *. float_of_int (engine_shards st.engine)) );
    ("orchestrator.fast_path_ratio", iratio fast (fast + esc));
    ( "orchestrator.unattributed_share",
      1.0
      -. ratio (span_seconds snap layer_spans)
           (span_seconds snap [ "engine.request" ]) );
    ("digest_cache.hit_ratio", iratio hits probes);
    ("digest_cache.stale_ratio", iratio stale probes);
    ("vmi.pages_mapped_per_op", iratio (sum_suffix ".pages_mapped" sessions) ops);
    ("meter.bytes_hashed_per_op", iratio (sum_suffix ".bytes_hashed" sessions) ops);
    ( "merkle.leaves_rehashed_per_react",
      iratio (counter snap "merkle.leaves_rehashed") ops );
  ]

let run ~trace ~seed ~seconds =
  let notes = ref [] in
  let result ph shards metrics =
    {
      r_attempted = ph.ph_attempted;
      r_failed = ph.ph_failed;
      r_metrics = metrics;
      r_engine_shards = shards;
      r_notes = List.rev !notes;
    }
  in
  if not trace then begin
    let st, setup_s = setup_median ~reps:3 (fun () -> setup ~seed) teardown in
    let warm = session st ~seconds:warmup_s ~notes in
    let ss = session st ~seconds ~notes in
    let shards = engine_shards st.engine in
    teardown st;
    result (merge_phases [ warm.ss_phase; ss.ss_phase ]) shards
      (end_to_end ss.ss_phase ~setup_s)
  end
  else begin
    let st = setup ~seed in
    let warm = session st ~seconds:warmup_s ~notes in
    let plain, traced = alternate ~seconds (session st ~notes) in
    let snap = Tel.snapshot () in
    Tel.reset ();
    let own = layers st traced ~snap in
    let shards = engine_shards st.engine in
    teardown st;
    let first = List.hd traced in
    let probes =
      Layers.probe st.cloud ~module_name:"http.sys" ~samples:first.ss_samples
        ~ledger_file:(Some first.ss_ledger_file)
    in
    let phase l = merge_phases (List.map (fun ss -> ss.ss_phase) l) in
    let plain = phase plain and traced = phase traced in
    result (merge_phases [ warm.ss_phase; plain; traced ]) shards
      (own @ probes
      @ [ ("latency_p99_ms", latency_p99_ms plain);
          ("telemetry.overhead_ratio", overhead ~plain ~traced) ])
  end
