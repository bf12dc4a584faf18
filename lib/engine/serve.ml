module Json = Mc_util.Json
module Deferred = Mc_parallel.Deferred
module Exit_code = Modchecker.Exit_code

type stats = {
  sv_lines : int;
  sv_requests : int;
  sv_responses : int;
  sv_invalid : int;
  sv_busy : int;
  sv_retries : int;
  sv_draining : int;
  sv_max_inflight : int;
  sv_exit : int;
}

let retry_after_s engine =
  let st = Engine_core.stats engine in
  let shards = Array.length st.Engine_core.st_per_shard_serviced in
  let busy =
    Array.fold_left ( +. ) 0.0 st.Engine_core.st_per_shard_busy_s
  in
  let mean_service_s =
    if st.Engine_core.st_completed > 0 then
      busy /. float_of_int st.Engine_core.st_completed
    else 0.001
  in
  let backlog = max 1 (Engine_core.queue_depth engine) in
  Float.max 0.0005
    (mean_service_s *. float_of_int backlog /. float_of_int (max 1 shards))

type inflight = { if_seq : int; if_frame : Wire.frame; if_cell : Engine_core.response Deferred.t }

let run ?(window = 32) ?ledger ?emit ?sink engine ~next =
  if window < 1 then invalid_arg "Mc_engine.Serve.run: window must be >= 1";
  let emit = Option.value emit ~default:(fun _ -> ()) in
  let inflight : inflight Queue.t = Queue.create () in
  let lines = ref 0 in
  let requests = ref 0 in
  let responses = ref 0 in
  let invalid = ref 0 in
  let busy = ref 0 in
  let retries = ref 0 in
  let draining = ref 0 in
  let max_inflight = ref 0 in
  let exit = ref Exit_code.ok in
  (* One buffer per session, cleared per reply: growing a fresh buffer
     to a reply's size on every reply costs an allocation per doubling. *)
  let line = Buffer.create 4096 in
  (* Hands [reply] to [emit], and encodes it once when the ledger or the
     line sink needs its bytes: the ledger hashes the attested bytes,
     then the timing fields are spliced on for the sink. *)
  let deliver reply =
    emit reply;
    let attest =
      match (reply, ledger) with
      | Wire.Resp resp, Some l -> Some (resp, l)
      | _ -> None
    in
    if Option.is_some attest || Option.is_some sink then begin
      Buffer.clear line;
      Json.to_buffer line (Wire.attested_json reply);
      Option.iter
        (fun ((resp : Wire.resp), l) ->
          let surveyed, responded = Wire.vote_counts resp in
          ignore
            (Mc_ledger.append l ~key:(Wire.frame_key resp.Wire.rs_frame)
               ~verdict:(Wire.verdict_key resp) ~surveyed ~responded
               ?root:resp.Wire.rs_root ~meter:resp.Wire.rs_meter
               ~body:(Buffer.contents line) ()))
        attest;
      Option.iter
        (fun sink ->
          Wire.add_timing line reply;
          Buffer.add_char line '\n';
          sink (Buffer.contents line))
        sink
    end;
    exit := Exit_code.combine !exit (Wire.exit_code reply)
  in
  let settle_oldest () =
    let { if_seq; if_frame; if_cell } = Queue.pop inflight in
    let response = Deferred.await if_cell in
    (* The anchor is read after service: the request itself just cached
       (or refreshed) the Merkle print the root summarizes. *)
    let root = Engine_core.anchor_root engine if_frame.Wire.f_request in
    deliver
      (Wire.Resp (Wire.resp_of_response ~seq:if_seq ?root if_frame response));
    incr responses
  in
  let rec admit ~attempt seq frame =
    match
      Engine_core.submit ~priority:frame.Wire.f_priority engine
        frame.Wire.f_request
    with
    | Ok cell ->
        Queue.push { if_seq = seq; if_frame = frame; if_cell = cell } inflight;
        if Queue.length inflight > !max_inflight then
          max_inflight := Queue.length inflight;
        true
    | Error (Engine_core.Queue_full bound) ->
        let reply =
          Wire.Busy
            {
              b_seq = seq;
              b_retry_after_s = retry_after_s engine;
              b_queue_bound = bound;
            }
        in
        deliver reply;
        incr busy;
        (* Free capacity the way a client honoring the hint would let
           us: finish the oldest outstanding request; with nothing in
           flight (another session owns the queue), back off for real. *)
        if not (Queue.is_empty inflight) then settle_oldest ()
        else Unix.sleepf (Engine_core.backoff_delay_s ~attempt);
        incr retries;
        admit ~attempt:(attempt + 1) seq frame
    | Error Engine_core.Draining ->
        deliver (Wire.Draining { d_seq = seq });
        incr draining;
        false
  in
  let rec pump () =
    match next () with
    | None -> ()
    | Some line ->
        incr lines;
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then pump ()
        else begin
          let seq = !requests in
          incr requests;
          (match Wire.parse_line trimmed with
          | Error e ->
              deliver (Wire.Invalid { i_seq = seq; i_error = e });
              incr invalid
          | Ok frame ->
              if Queue.length inflight >= window then settle_oldest ();
              ignore (admit ~attempt:0 seq frame));
          pump ()
        end
  in
  pump ();
  while not (Queue.is_empty inflight) do
    settle_oldest ()
  done;
  {
    sv_lines = !lines;
    sv_requests = !requests;
    sv_responses = !responses;
    sv_invalid = !invalid;
    sv_busy = !busy;
    sv_retries = !retries;
    sv_draining = !draining;
    sv_max_inflight = !max_inflight;
    sv_exit = !exit;
  }
