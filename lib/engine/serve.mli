(** The connection layer: a simulated duplex session over one engine.

    [run] plays the server side of a stream connection — request lines
    in via [next], {!Wire.reply} frames out via [emit] — with the
    properties a real socket loop would need:

    - {b Bounded in-flight window.} At most [window] requests are
      outstanding at once; the oldest is awaited (and its response
      emitted) before another is admitted, so a slow pipeline propagates
      backpressure to the client instead of buffering unboundedly.
    - {b Admission control on the wire.} A [Queue_full] rejection
      becomes a [Busy] reply carrying a retry-after hint derived from
      the engine's live backlog and mean service time; the session then
      frees capacity (settling the oldest in-flight request, or backing
      off {!Engine_core.backoff_delay_s} when none is in flight) and
      resubmits. [Draining] and parse failures likewise answer on the
      wire rather than dropping the request.
    - {b Attestation.} Every response is appended to the [ledger] (when
      given): request key, verdict, vote counts, Merkle anchor root,
      meter summary, and the MD5 of the reply's attested bytes
      ({!Wire.attested_json}: the reply without its wall-clock [wait_s]
      and [service_s]) — the chain an auditor later walks with
      [Mc_ledger.verify]. Two sessions over one request stream whose
      replies are deterministic (one shard, a window of 1) write
      byte-identical ledgers.
    - {b One encode per reply.} A reply is encoded only when the ledger
      or the line [sink] needs its bytes, and then once, into one buffer
      the session reuses: the ledger hashes the attested bytes, and the
      sink receives those bytes with the timing fields spliced on (the
      compact {!Wire.reply_to_json} line, newline-terminated). [emit]
      receives every reply value as well, to render as it likes.

    Responses are emitted in request order (the window settles oldest
    first); [Busy]/[Draining]/[Invalid] replies interleave at the moment
    they happen, correlated by [seq]. Comment ([#]) and blank lines are
    skipped without consuming a sequence number, so a batch request file
    replays over the stream unchanged. *)

type stats = {
  sv_lines : int;  (** Lines consumed, comments and blanks included. *)
  sv_requests : int;  (** Frames parsed (= sequence numbers issued). *)
  sv_responses : int;  (** [Resp] replies emitted. *)
  sv_invalid : int;  (** [Invalid] replies emitted. *)
  sv_busy : int;  (** [Busy] replies emitted (one per rejection). *)
  sv_retries : int;  (** Resubmissions after a [Busy]. *)
  sv_draining : int;  (** [Draining] replies emitted. *)
  sv_max_inflight : int;  (** High-water mark of the in-flight window. *)
  sv_exit : int;
      (** {!Wire.exit_code} combined over every reply — the session's
          batch verdict. *)
}

val run :
  ?window:int ->
  ?ledger:Mc_ledger.t ->
  ?emit:(Wire.reply -> unit) ->
  ?sink:(string -> unit) ->
  Engine_core.t ->
  next:(unit -> string option) ->
  stats
(** [run engine ~next] pumps the session until [next] returns [None],
    then settles every in-flight request. Each reply goes to [emit] and,
    encoded, to [sink]. [window] defaults to 32 and
    must be at least 1. The engine is left running — the caller decides
    when to [drain] (a session is one connection, not the service). *)

val retry_after_s : Engine_core.t -> float
(** The [Busy] hint: the engine's current backlog times its observed
    mean service time, spread across its shards — an estimate of when a
    freed slot is likely. Never below 0.5 ms. *)
