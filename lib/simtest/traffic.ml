module Rng = Mc_util.Rng
module Cloud = Mc_hypervisor.Cloud
module Costs = Mc_hypervisor.Costs
module Meter = Mc_hypervisor.Meter
module Engine = Mc_engine
module Wire = Mc_engine.Wire
module Serve = Mc_engine.Serve
module Infect = Mc_malware.Infect

type profile = {
  p_vms : int;
  p_modules : string list;
  p_check_w : int;
  p_survey_w : int;
  p_lists_w : int;
  p_dup_percent : int;
  p_high_percent : int;
  p_low_percent : int;
}

let default_profile =
  {
    p_vms = 8;
    p_modules = Mc_pe.Catalog.standard_modules;
    p_check_w = 70;
    p_survey_w = 25;
    p_lists_w = 5;
    p_dup_percent = 25;
    p_high_percent = 10;
    p_low_percent = 20;
  }

let lines ?(profile = default_profile) ~seed ~n () =
  if n < 0 then invalid_arg "Traffic.lines: n must be >= 0";
  let rng = Rng.create seed in
  let modules = Array.of_list profile.p_modules in
  if Array.length modules = 0 then
    invalid_arg "Traffic.lines: profile has no modules";
  let total_w =
    max 1 (profile.p_check_w + profile.p_survey_w + profile.p_lists_w)
  in
  (* Duplicates are drawn from a small ring of recent lines: fan-in that
     arrives while the original is still queued or in flight is what the
     coalescer can actually merge, mirroring the advisory-storm shape
     (everyone asks about the same module at once). *)
  let ring = Array.make 32 None in
  let fresh i =
    let priority =
      let r = Rng.int rng 100 in
      if r < profile.p_high_percent then "high"
      else if r < profile.p_high_percent + profile.p_low_percent then "low"
      else "normal"
    in
    let line =
      let r = Rng.int rng total_w in
      if r < profile.p_check_w then
        Printf.sprintf "check %d %s %s"
          (Rng.int rng (max 1 profile.p_vms))
          (Rng.pick rng modules) priority
      else if r < profile.p_check_w + profile.p_survey_w then
        Printf.sprintf "survey - %s %s" (Rng.pick rng modules) priority
      else Printf.sprintf "lists - - %s" priority
    in
    ring.(i mod Array.length ring) <- Some line;
    line
  in
  let emitted = ref 0 in
  fun () ->
    if !emitted >= n then None
    else begin
      let i = !emitted in
      incr emitted;
      let line =
        if i > 0 && Rng.int rng 100 < profile.p_dup_percent then
          match ring.(Rng.int rng (min i (Array.length ring))) with
          | Some line -> line
          | None -> fresh i
        else fresh i
      in
      Some line
    end

type outcome = {
  to_requests : int;
  to_responses : int;
  to_busy : int;
  to_retries : int;
  to_invalid : int;
  to_coalesced : int;
  to_completed : int;
  to_run_backoffs : int;
  to_wall_s : float;
  to_critical_s : float;
  to_total_virtual_s : float;
  to_rps_virtual : float;
  to_rps_wall : float;
  to_max_inflight : int;
  to_ledger_entries : int;
  to_exit : int;
  to_violations : string list;
}

(* Ground truth for one response: with an inline hook staged on
   [infect_vm], exactly the infected module's check-on-target and survey
   convict; everything else — other modules, checks of clean VMs against
   the mostly-clean pool, list walks — stays intact. *)
let expected_verdict ~infection (request : Engine.request) =
  match (infection : Infect.infection option) with
  | None -> "intact"
  | Some inf -> (
      let bad = String.lowercase_ascii inf.Infect.infected_module in
      match request with
      | Engine.Check { vm; module_name }
        when vm = inf.Infect.target_vm
             && String.lowercase_ascii module_name = bad ->
          "infected"
      | Engine.Survey { module_name }
        when String.lowercase_ascii module_name = bad ->
          "infected"
      | Engine.Check _ | Engine.Survey _ | Engine.Lists -> "intact")

let replay ?(profile = default_profile) ?(shards = 2) ?(queue_bound = 64)
    ?(window = 32) ?infect_vm ?ledger ?emit ~seed ~requests () =
  let cloud = Cloud.create ~vms:profile.p_vms ~cores:8 ~seed () in
  let infection =
    match infect_vm with
    | None -> None
    | Some vm -> (
        match Infect.inline_hook cloud ~vm with
        | Ok inf -> Some inf
        | Error e -> failwith ("Traffic.replay: staging infection: " ^ e))
  in
  let engine = Engine.create ~shards ~queue_bound cloud in
  let violations = ref [] in
  let violation_count = ref 0 in
  let check_reply reply =
    (match reply with
    | Wire.Resp resp ->
        let got = Wire.verdict_key resp in
        let want =
          expected_verdict ~infection resp.Wire.rs_frame.Wire.f_request
        in
        if not (String.equal got want) then begin
          incr violation_count;
          if !violation_count <= 10 then
            violations :=
              Printf.sprintf "seq %d %s: verdict %s, oracle expected %s"
                resp.Wire.rs_seq
                (Wire.frame_key resp.Wire.rs_frame)
                got want
              :: !violations
        end
    | Wire.Busy _ | Wire.Draining _ | Wire.Invalid _ -> ());
    match emit with None -> () | Some f -> f reply
  in
  let next = lines ~profile ~seed:(Int64.add seed 1L) ~n:requests () in
  let started = Unix.gettimeofday () in
  let sv = Serve.run ~window ?ledger ~emit:check_reply engine ~next in
  let st = Engine.stats engine in
  Engine.drain engine;
  let wall_s = Unix.gettimeofday () -. started in
  let costs = Costs.default in
  let per_shard =
    Array.map (fun m -> Meter.total_cpu_seconds costs m)
      (Engine.shard_meters engine)
  in
  let critical_s = Array.fold_left Float.max 0.0 per_shard in
  let total_virtual_s = Array.fold_left ( +. ) 0.0 per_shard in
  {
    to_requests = sv.Serve.sv_requests;
    to_responses = sv.Serve.sv_responses;
    to_busy = sv.Serve.sv_busy;
    to_retries = sv.Serve.sv_retries;
    to_invalid = sv.Serve.sv_invalid;
    to_coalesced = st.Engine.st_coalesced;
    to_completed = st.Engine.st_completed;
    to_run_backoffs = st.Engine.st_run_backoffs;
    to_wall_s = wall_s;
    to_critical_s = critical_s;
    to_total_virtual_s = total_virtual_s;
    to_rps_virtual =
      (if critical_s > 0.0 then float_of_int sv.Serve.sv_requests /. critical_s
       else 0.0);
    to_rps_wall =
      (if wall_s > 0.0 then float_of_int sv.Serve.sv_requests /. wall_s
       else 0.0);
    to_max_inflight = sv.Serve.sv_max_inflight;
    to_ledger_entries =
      (match ledger with None -> 0 | Some l -> Mc_ledger.length l);
    to_exit = sv.Serve.sv_exit;
    to_violations = List.rev !violations;
  }
