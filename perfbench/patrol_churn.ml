(* patrol-churn: an event-driven Patrol session under a stream of guest
   writes.

   Why this workload: writes run beside reads. Each step makes one guest
   write and then one Events.react, so the same Digest_cache/Checker code
   that stream-warm drives through Fresh probes runs here through its
   Stale/merkle_rehash path, epoch-change rebuilds after a restore, and
   escalation to a full survey after an infection. A caching change that
   helps one of the two workloads at the other's expense shows up.

   Writes happen only between reactions, never during one: Mc_memsim.Phys
   frames and version tables are unsynchronized Hashtbls, so a guest write
   racing a checker's read would be a data race, not a workload. The
   checking closures are in-process Orchestrator calls (sequential,
   incremental + Merkle), as [patrol --event-driven] runs them. *)

open Common
module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Orchestrator = Modchecker.Orchestrator
module Config = Modchecker.Orchestrator.Config
module Patrol = Modchecker.Patrol
module Events = Modchecker.Patrol.Events
module Report = Modchecker.Report
module Engine = Mc_engine
module Wire = Mc_engine.Wire
module Rng = Mc_util.Rng

let vms = 8

let watch = Mc_pe.Catalog.standard_modules

let watch_arr = Array.of_list watch

(* One guest write. In every block of 20 steps, 18 touch k .text pages of
   a watched module without changing them (the O(dirty) refresh), one
   inline-hooks a module, and the step after it restores that VM from its
   boot snapshot (an epoch change: every watch source of the VM is
   rechecked) — 90/5/5 %. The hook's place in its block is seeded; the
   exact mix keeps every seed's share of expensive steps the same. *)
type step =
  | Benign of { vm : int; module_name : string; pages : int }
  | Infect of { vm : int; module_name : string; pick : int }
  | Restore of { vm : int }

let step_string = function
  | Benign { vm; module_name; pages } -> Printf.sprintf "touch %d %s %d" vm module_name pages
  | Infect { vm; module_name; pick } -> Printf.sprintf "hook %d %s %d" vm module_name pick
  | Restore { vm } -> Printf.sprintf "restore %d" vm

let block = 20

(* Draws modules from a seeded shuffle of the watch list, reshuffled once
   used up, so every module is hooked (and touched) equally often. *)
let deck rng =
  let cards = Array.copy watch_arr and left = ref 0 in
  fun () ->
    if !left = 0 then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let c = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- c
      done;
      left := Array.length cards
    end;
    decr left;
    cards.(!left)

(* The seeded write schedule, endless. *)
let schedule ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let touched = deck rng and hooked = deck rng in
  let i = ref 0 and hook_at = ref 0 and hooked_vm = ref 0 in
  fun () ->
    let pos = !i mod block in
    incr i;
    if pos = 0 then hook_at := Rng.int rng (block - 1);
    if pos = !hook_at then begin
      hooked_vm := Rng.int rng vms;
      Infect { vm = !hooked_vm; module_name = hooked (); pick = Rng.int rng 1_000_000 }
    end
    else if pos = !hook_at + 1 then Restore { vm = !hooked_vm }
    else Benign { vm = Rng.int rng vms; module_name = touched (); pages = 1 + Rng.int rng 4 }

let fingerprint ~seed =
  let next = schedule ~seed in
  let buf = Buffer.create 32_768 in
  for _ = 1 to 1000 do
    Buffer.add_string buf (step_string (next ()));
    Buffer.add_char buf '\n'
  done;
  md5_hex (Buffer.contents buf)

type state = {
  cloud : Cloud.t;
  snaps : Cloud.vm_snapshot array;
  session : Events.session;
  next : unit -> step;
  mutable clock : float;  (** The session's virtual now. *)
}

let setup ~seed =
  let cloud = Cloud.create ~vms ~seed:(Int64.of_int seed) () in
  let snaps = Array.init vms (Cloud.snapshot_vm cloud) in
  let inc = Orchestrator.create_incremental () in
  let check =
    Config.default |> Config.with_incremental inc |> Config.with_merkle true
  in
  let config = { Patrol.default_config with Patrol.incremental = true; check } in
  let survey ~high:_ module_name =
    let meter = Meter.create () in
    (module_name, Orchestrator.survey ~config:check ~meter cloud ~module_name, meter)
  in
  let lists ~high:_ () =
    let meter = Meter.create () in
    Some (Orchestrator.survey_module_lists ~config:check ~meter cloud, meter)
  in
  let session = Events.create ~config ~inc ~survey ~lists cloud in
  Events.set_now session 0.0;
  let base = Events.baseline session ~now:0.0 in
  if base.Events.rx_alarms <> [] then failwith "patrol-churn: baseline raised alarms";
  { cloud; snaps; session; next = schedule ~seed; clock = 0.0 }

let alarm_string (a : Patrol.alarm) =
  Printf.sprintf "%s on %s (VMs %s)" (Patrol.alarm_kind_key a.Patrol.kind)
    a.Patrol.alarm_module
    (String.concat "," (List.map string_of_int a.Patrol.alarm_vms))

let reaction_alarms = function None -> [] | Some r -> r.Events.rx_alarms

(* Apply one write, react, and judge the reaction: an infection must raise
   exactly one Hash_deviation naming its module and VM; a benign touch or
   a restore must raise nothing. *)
let step st ~notes =
  let s = st.next () in
  st.clock <- st.clock +. 1.0;
  Events.set_now st.session st.clock;
  let staged =
    match s with
    | Benign { vm; module_name; pages } ->
        Mc_malware.Infect.benign_touch ~module_name ~pages st.cloud ~vm
        |> Result.map ignore
    | Infect { vm; module_name; pick } ->
        stage_hook st.cloud ~vm ~module_name ~pick;
        Ok ()
    | Restore { vm } ->
        Cloud.restore_vm st.cloud vm st.snaps.(vm);
        Ok ()
  in
  let t0 = now () in
  let r = Events.react st.session ~now:st.clock in
  let dt = now () -. t0 in
  let alarms = reaction_alarms r in
  let ok =
    match (staged, s) with
    | Error e, _ ->
        note notes (Printf.sprintf "%s: %s" (step_string s) e);
        false
    | Ok (), Infect { vm; module_name; _ } -> (
        match alarms with
        | [ { Patrol.kind = Patrol.Hash_deviation; alarm_module; alarm_vms = [ v ]; _ } ]
          when alarm_module = module_name && v = vm ->
            true
        | _ -> false)
    | Ok (), (Benign _ | Restore _) -> alarms = []
  in
  if not ok then
    note notes
      (Printf.sprintf "%s: alarms [%s]" (step_string s)
         (String.concat "; " (List.map alarm_string alarms)));
  (s, r, dt, ok)

type session = {
  ss_phase : phase;
  ss_detect_s : float list;  (** Reaction wall of each infection step. *)
  ss_reactions : int;
  ss_traps : int;
  ss_surveys : int;
  ss_meters : Meter.t list;
  ss_samples : (string * Wire.reply) list;
}

(* The surveys a reaction ran, as the wire would carry them. *)
let samples_of seq (r : Events.reaction) =
  List.map
    (fun (module_name, survey, meter) ->
      let frame =
        { Wire.f_priority = Engine.High; f_request = Engine.Survey { module_name } }
      in
      let response =
        {
          Engine.r_request = frame.Wire.f_request;
          r_outcome = Engine.Surveyed survey;
          r_meter = meter;
          r_shard = 0;
          r_wait_s = 0.0;
          r_service_s = 0.0;
        }
      in
      (Wire.line_of_frame frame, Wire.Resp (Wire.resp_of_response ~seq frame response)))
    r.Events.rx_work.Patrol.sw_surveys

(* Steps until [seconds] have passed, then finishes a pending restore so
   the pool ends clean. *)
let session st ~seconds ~notes =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let cpu0 = cpu_s () in
  let n = ref 0 and failed = ref 0 in
  let lats = ref [] and detect = ref [] in
  let reactions = ref 0 and traps = ref 0 and surveys = ref 0 in
  let meters = ref [] and samples = ref [] and n_samples = ref 0 in
  let restore_due = ref false in
  while !restore_due || now () < deadline do
    let s, r, dt, ok = step st ~notes in
    incr n;
    if not ok then incr failed;
    lats := dt :: !lats;
    restore_due := (match s with Infect _ -> true | Benign _ | Restore _ -> false);
    (match s with Infect _ -> detect := dt :: !detect | Benign _ | Restore _ -> ());
    match r with
    | None -> ()
    | Some r ->
        incr reactions;
        traps := !traps + r.Events.rx_traps;
        let w = r.Events.rx_work in
        surveys := !surveys + List.length w.Patrol.sw_surveys;
        meters :=
          List.map (fun (_, _, m) -> m) w.Patrol.sw_surveys
          @ Option.to_list (Option.map snd w.Patrol.sw_lists)
          @ Option.to_list w.Patrol.sw_overhead
          @ !meters;
        if !n_samples < 200 then begin
          let fresh = samples_of !n r in
          n_samples := !n_samples + List.length fresh;
          samples := List.rev_append fresh !samples
        end
  done;
  {
    ss_phase =
      {
        ph_attempted = !n;
        ph_failed = !failed;
        ph_wall_s = now () -. t0;
        ph_cpu_s = cpu_s () -. cpu0;
        ph_latencies_s = !lats;
      };
    ss_detect_s = !detect;
    ss_reactions = !reactions;
    ss_traps = !traps;
    ss_surveys = !surveys;
    ss_meters = !meters;
    ss_samples = List.rev !samples;
  }

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
    let sum f = List.fold_left (fun acc ss -> acc + f ss) 0 traced in
    let reacts = sum (fun ss -> ss.ss_reactions) in
    let meters = List.concat_map (fun ss -> ss.ss_meters) traced in
    let samples = List.concat_map (fun ss -> ss.ss_samples) traced in
    (* From the untraced slices: detection is a user-facing latency. *)
    let detect = List.concat_map (fun ss -> ss.ss_detect_s) plain in
    let phase l = merge_phases (List.map (fun ss -> ss.ss_phase) l) in
    let plain = phase plain and traced = phase traced in
    let ops = traced.ph_attempted in
    let hits = counter snap "digest_cache.hits"
    and misses = counter snap "digest_cache.misses"
    and stale = counter snap "digest_cache.stale_partial" in
    let probes = hits + misses + stale in
    let own =
      [
        ( "orchestrator.unattributed_share",
          1.0
          -. ratio (span_seconds snap layer_spans)
               (List.fold_left ( +. ) 0.0 traced.ph_latencies_s) );
        ("digest_cache.hit_ratio", iratio hits probes);
        ("digest_cache.stale_ratio", iratio stale probes);
        ("vmi.pages_mapped_per_op", iratio (meter_count "pages_mapped" meters) ops);
        ("meter.bytes_hashed_per_op", iratio (meter_count "bytes_hashed" meters) ops);
        ( "merkle.leaves_rehashed_per_react",
          iratio (counter snap "merkle.leaves_rehashed") reacts );
        ("patrol.traps_per_react", iratio (sum (fun ss -> ss.ss_traps)) reacts);
        ("patrol.surveys_per_react", iratio (sum (fun ss -> ss.ss_surveys)) reacts);
        ("patrol.detect_p50_ms", median detect *. 1e3);
      ]
    in
    let probes =
      Layers.probe st.cloud ~module_name:"http.sys" ~samples ~ledger_file:None
    in
    result (merge_phases [ warm.ss_phase; plain; traced ])
      (own @ probes
      @ [ ("latency_p99_ms", latency_p99_ms plain);
          ("telemetry.overhead_ratio", overhead ~plain ~traced) ])
  end
