(* check-cold: the one-shot Orchestrator.check_module, as the [check]
   command runs it.

   Why this workload: with Config.default (sequential, pairwise, no
   cache) every call re-maps, re-parses, re-adjusts and re-hashes the
   module on all 15 VMs of the paper's testbed, so Searcher/Vmi, Parser,
   Rva, Checker and Md5 do all the work while the engine, wire and ledger
   are bypassed. It is where a faster checking pipeline shows, and where a
   service-layer change must show nothing. One seeded inline hook is
   staged; its (VM, module) must come back Infected and every other
   target Intact. *)

open Common
module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Engine = Mc_engine
module Wire = Mc_engine.Wire
module Rng = Mc_util.Rng

let vms = 15

let modules = Array.of_list Mc_pe.Catalog.standard_modules

let cycle = vms * Array.length modules

type plan = {
  infected_vm : int;
  infected_module : string;
  hook_pick : int;
  start : int;  (** Offset into the target cycle. *)
}

let plan ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let infected_vm = Rng.int rng vms in
  let infected_module = Rng.pick rng modules in
  let hook_pick = Rng.int rng 1_000_000 in
  let start = Rng.int rng cycle in
  { infected_vm; infected_module; hook_pick; start }

(* The i-th target. Modules rotate fastest, so any stretch of nine calls
   covers the whole catalog and a time-bounded run sees the same module
   mix whatever its length; every (VM, module) pair comes round once per
   cycle. *)
let target p i =
  let i = (p.start + i) mod cycle in
  (i / Array.length modules, modules.(i mod Array.length modules))

let fingerprint ~seed =
  let p = plan ~seed in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "hook %d %s %d\n" p.infected_vm p.infected_module p.hook_pick;
  for i = 0 to cycle - 1 do
    let vm, m = target p i in
    Printf.bprintf buf "check %d %s\n" vm m
  done;
  md5_hex (Buffer.contents buf)

type state = { cloud : Cloud.t; p : plan }

let setup ~seed =
  let p = plan ~seed in
  let cloud = Cloud.create ~vms ~seed:(Int64.of_int seed) () in
  stage_hook cloud ~vm:p.infected_vm ~module_name:p.infected_module
    ~pick:p.hook_pick;
  { cloud; p }

(* One check of the i-th target: its wall seconds, its outcome, and
   whether the oracle accepts the verdict. *)
let check st i ~notes =
  let vm, module_name = target st.p i in
  let t0 = now () in
  let r = Orchestrator.check_module st.cloud ~target_vm:vm ~module_name in
  let dt = now () -. t0 in
  let expected =
    if vm = st.p.infected_vm && module_name = st.p.infected_module then
      Report.Infected
    else Report.Intact
  in
  let ok =
    match r with
    | Ok o when o.Orchestrator.report.Report.verdict = expected -> true
    | Ok o ->
        note notes
          (Printf.sprintf "check %d %s: %s, expected %s" vm module_name
             (Report.verdict_key o.Orchestrator.report.Report.verdict)
             (Report.verdict_key expected));
        false
    | Error e ->
        note notes (Printf.sprintf "check %d %s: error %s" vm module_name e);
        false
  in
  (vm, module_name, dt, r, ok)

type session = {
  ss_phase : phase;
  ss_meters : Meter.t list;
  ss_samples : (string * Wire.reply) list;
}

(* The outcome as the wire would carry it, for the codec and ledger
   probes. *)
let sample i vm module_name dt outcome =
  let frame =
    { Wire.f_priority = Engine.Normal; f_request = Engine.Check { vm; module_name } }
  in
  let meter = Meter.create () in
  (match outcome with
  | Ok o -> List.iter (fun w -> Meter.merge meter w.Orchestrator.work_meter) o.Orchestrator.work
  | Error _ -> ());
  let response =
    {
      Engine.r_request = frame.Wire.f_request;
      r_outcome = Engine.Checked outcome;
      r_meter = meter;
      r_shard = 0;
      r_wait_s = 0.0;
      r_service_s = dt;
    }
  in
  (Wire.line_of_frame frame, Wire.Resp (Wire.resp_of_response ~seq:i frame response))

(* Checks targets in order until [seconds] have passed (or [ops] calls
   were made). *)
let session ?ops st ~seconds ~notes =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let cpu0 = cpu_s () in
  let rec go i failed lats meters samples =
    let more = match ops with Some n -> i < n | None -> now () < deadline in
    if not more then (i, failed, lats, meters, samples)
    else
      let vm, module_name, dt, r, ok = check st i ~notes in
      let meters =
        match r with
        | Ok o -> List.map (fun w -> w.Orchestrator.work_meter) o.Orchestrator.work @ meters
        | Error _ -> meters
      in
      let samples = if i < 200 then sample i vm module_name dt r :: samples else samples in
      go (i + 1) (if ok then failed else failed + 1) (dt :: lats) meters samples
  in
  let n, failed, lats, meters, samples = go 0 0 [] [] [] in
  {
    ss_phase =
      {
        ph_attempted = n;
        ph_failed = failed;
        ph_wall_s = now () -. t0;
        ph_cpu_s = cpu_s () -. cpu0;
        ph_latencies_s = lats;
      };
    ss_meters = meters;
    ss_samples = List.rev samples;
  }

(* The work [ops] checks did, as exact meter counts. *)
let meter_counts ~seed ~ops =
  let st = setup ~seed in
  let ss = session ~ops st ~seconds:0.0 ~notes:(ref []) in
  meter_pairs ss.ss_meters

let run ~trace ~seed ~seconds =
  let notes = ref [] in
  let result ph metrics =
    {
      r_attempted = ph.ph_attempted;
      r_failed = ph.ph_failed;
      r_metrics = metrics;
      r_engine_shards = default_engine_shards ();
      r_notes = List.rev !notes;
    }
  in
  if not trace then begin
    let st, setup_s = setup_median ~reps:3 (fun () -> setup ~seed) ignore in
    let warm = session st ~seconds:warmup_s ~notes in
    let ss = session st ~seconds ~notes in
    result (merge_phases [ warm.ss_phase; ss.ss_phase ]) (end_to_end ss.ss_phase ~setup_s)
  end
  else begin
    let st = setup ~seed in
    let warm = session st ~seconds:warmup_s ~notes in
    let plain, traced = alternate ~seconds (session st ~notes) in
    let snap = Tel.snapshot () in
    Tel.reset ();
    let phase l = merge_phases (List.map (fun ss -> ss.ss_phase) l) in
    let plain = phase plain and meters = List.concat_map (fun ss -> ss.ss_meters) traced
    and samples = List.concat_map (fun ss -> ss.ss_samples) traced
    and traced = phase traced in
    let ops = traced.ph_attempted in
    let own =
      [
        ( "orchestrator.unattributed_share",
          1.0
          -. ratio (span_seconds snap layer_spans)
               (List.fold_left ( +. ) 0.0 traced.ph_latencies_s) );
        ("vmi.pages_mapped_per_op", iratio (meter_count "pages_mapped" meters) ops);
        ("meter.bytes_hashed_per_op", iratio (meter_count "bytes_hashed" meters) ops);
      ]
    in
    let module_name =
      if st.p.infected_module = "http.sys" then "ndis.sys" else "http.sys"
    in
    let probes = Layers.probe st.cloud ~module_name ~samples ~ledger_file:None in
    result (merge_phases [ warm.ss_phase; plain; traced ])
      (own @ probes
      @ [ ("latency_p99_ms", latency_p99_ms plain);
          ("telemetry.overhead_ratio", overhead ~plain ~traced) ])
  end
