(** Simtest-driven traffic replay: million-request campaigns against the
    serving stack.

    Where {!Runner} validates the checker's {e verdicts} event by event,
    the traffic campaign exercises the {e service}: a seeded generator
    emits an arbitrary-length stream of wire-protocol request lines
    (weighted check/survey/lists mix, weighted priorities, a tunable
    duplicate burst rate) and {!replay} pumps the stream through
    [Mc_engine.Serve] over a fresh cloud — windowed backpressure,
    protocol replies, hash-chained ledger and all — while an oracle
    checks every response verdict against the staged ground truth.

    Throughput is reported on the metered virtual clock: the critical
    path is the {e max} over shards of their priced virtual seconds
    (what the wall clock would be with a core per shard), so shard
    scaling is measured honestly even on a small host. The generator is
    lazy — a million-request stream never exists in memory. *)

type profile = {
  p_vms : int;  (** Pool size of the replayed cloud. *)
  p_modules : string list;  (** Modules traffic asks about. *)
  p_check_w : int;  (** Relative weight of [check] requests. *)
  p_survey_w : int;
  p_lists_w : int;
  p_dup_percent : int;
      (** Percent of lines that repeat a recent line instead of drawing
          a fresh one — duplicate fan-in for the coalescer (0–95). *)
  p_high_percent : int;  (** Percent of fresh lines at [high] priority. *)
  p_low_percent : int;  (** Percent at [low]; the rest are [normal]. *)
}

val default_profile : profile
(** 8 VMs, the standard module catalog, 70/25/5 check/survey/lists,
    25% duplicates, 10% high / 20% low priority. *)

val lines :
  ?profile:profile -> seed:int64 -> n:int -> unit -> unit -> string option
(** [lines ~seed ~n ()] is a one-shot stream of [n] request lines in
    [Serve]'s format — deterministic in [seed], generated lazily. Same
    seed, same stream. *)

type outcome = {
  to_requests : int;  (** Frames pushed through the session. *)
  to_responses : int;
  to_busy : int;  (** Busy replies (admission-control events). *)
  to_retries : int;
  to_invalid : int;
  to_coalesced : int;  (** Engine submissions answered by a duplicate. *)
  to_completed : int;  (** Requests the engine actually serviced. *)
  to_run_backoffs : int;
  to_wall_s : float;  (** Real seconds for the whole replay. *)
  to_critical_s : float;
      (** Max over shards of priced virtual seconds — the virtual
          wall-clock on one-core-per-shard hardware. *)
  to_total_virtual_s : float;  (** Sum over shards (total priced work). *)
  to_rps_virtual : float;  (** [to_requests /. to_critical_s]. *)
  to_rps_wall : float;
  to_max_inflight : int;
  to_ledger_entries : int;
  to_exit : int;  (** The session's combined exit code. *)
  to_violations : string list;
      (** Oracle mismatches (first 10): a response whose verdict
          contradicts the staged ground truth. Empty on a correct run. *)
}

val replay :
  ?profile:profile ->
  ?shards:int ->
  ?queue_bound:int ->
  ?window:int ->
  ?infect_vm:int ->
  ?ledger:Mc_ledger.t ->
  ?emit:(Mc_engine.Wire.reply -> unit) ->
  seed:int64 ->
  requests:int ->
  unit ->
  outcome
(** [replay ~seed ~requests ()] builds a [p_vms]-guest cloud from
    [seed], optionally stages an inline hook on [infect_vm] (the oracle
    then {e requires} hal.dll responses to convict exactly that VM, and
    everything else to stay intact), starts an engine ([shards] default
    2, one domain each; [queue_bound] default 64; its
    Merkle prints give check and survey responses anchor roots), and
    replays [requests] generated lines through one [Serve] session with
    window [window] (default 32), appending to [ledger] when given. The engine
    is drained before the outcome is computed, so every counter is
    final. *)
