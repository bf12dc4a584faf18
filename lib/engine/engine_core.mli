(** The engine proper: sharded dispatch, admission control, coalescing.

    This is the internal core behind {!Mc_engine} — see that module's
    documentation for the service model. The wire protocol ({!Wire}) and
    the connection layer ({!Serve}) build on the types here. *)

type t

type priority = High | Normal | Low

val priority_key : priority -> string
(** ["high"], ["normal"], ["low"]. *)

val priority_of_string : string -> (priority, string) result

type request =
  | Check of { vm : int; module_name : string }
      (** One target VM voted against the pool
          ({!Modchecker.Orchestrator.check_module}). *)
  | Survey of { module_name : string }
      (** Full-mesh comparison ({!Modchecker.Orchestrator.survey}). *)
  | Lists
      (** Cross-VM module-list comparison
          ({!Modchecker.Orchestrator.survey_module_lists}). *)

val request_key : request -> string
(** Stable display form, e.g. ["check:0:hal.dll"]. *)

type outcome =
  | Checked of (Modchecker.Orchestrator.outcome, string) result
      (** [Error] is {!Modchecker.Orchestrator.check_module}'s error
          (module absent on target, target unreachable...), exactly as
          the one-shot API reports it. *)
  | Surveyed of Modchecker.Report.survey
  | Listed of Modchecker.Orchestrator.list_comparison

type response = {
  r_request : request;
  r_outcome : outcome;
  r_meter : Mc_hypervisor.Meter.t;
      (** Every operation performed on behalf of this request; shared by
          all coalesced submitters — which is precisely the saving. *)
  r_shard : int;  (** Shard that serviced it. *)
  r_wait_s : float;  (** Real seconds queued before service began. *)
  r_service_s : float;  (** Real seconds of service. *)
}

type rejection =
  | Queue_full of int
      (** The bounded queue is at the given capacity; back off and
          resubmit. Coalesced duplicates are exempt — they consume no
          queue slot. *)
  | Draining  (** {!drain} has begun; no new work is admitted. *)

val rejection_message : rejection -> string

val create :
  ?shards:int ->
  ?queue_bound:int ->
  ?config:Modchecker.Orchestrator.Config.t ->
  Mc_hypervisor.Cloud.t ->
  t
(** [create cloud] starts the service: [shards] dispatcher domains
    (default 2) — the engine's only domains; each services the requests
    it takes on itself, one at a time — admitting at most [queue_bound]
    queued requests (default 64). [config] seeds every request's
    {!Modchecker.Orchestrator.Config.t}; its [mode] and [incremental]
    fields are overridden by the engine (requests run [Sequential] on
    their shard's domain, and all share one engine-wide incremental
    state). Raises [Invalid_argument] if [shards] or [queue_bound] is
    below 1. *)

val submit :
  ?priority:priority -> t -> request -> (response Mc_parallel.Deferred.t, rejection) result
(** [submit t request] enqueues (or coalesces) and returns the deferred
    to await. A request identical to one queued or in flight returns
    that request's deferred and keeps its priority. The deferred is
    always settled eventually — by a response, by the error the request
    raised, or at the latest by {!drain}. *)

val queue_depth : t -> int
(** Requests currently queued (not yet taken by a dispatcher) — the
    live backlog a retry-after hint is computed from. *)

val backoff_delay_s : attempt:int -> float
(** The bounded-exponential client backoff schedule: 0.5 ms doubled per
    attempt, capped at 50 ms. Pure — exposed so tests can assert the
    schedule without racing a real queue. *)

val run : ?priority:priority -> t -> request -> response
(** [submit] + await, sleeping {!backoff_delay_s} (bounded-exponential,
    counted in [st_run_backoffs] and on the ["engine.run.backoffs"]
    telemetry counter) between attempts while the queue is full. Raises
    [Failure] when submitted after {!drain}, and re-raises whatever
    exception the request's service raised. *)

val drain : t -> unit
(** Stop admitting, service everything already queued, and join the
    dispatchers. Every deferred ever returned by {!submit} is settled
    when [drain] returns — no request is dropped unanswered. Idempotent;
    submissions during and after reject with {!Draining}. *)

type stats = {
  st_submitted : int;  (** Admitted requests (coalesced joins excluded). *)
  st_coalesced : int;  (** Submissions answered by an existing deferred. *)
  st_rejected : int;  (** Submissions refused ([Queue_full] or [Draining]). *)
  st_completed : int;  (** Requests serviced (deferred settled). *)
  st_max_queue_depth : int;
  st_run_backoffs : int;  (** Backoff sleeps {!run} paid on a full queue. *)
  st_per_shard_serviced : int array;
  st_per_shard_busy_s : float array;  (** Real service seconds per shard. *)
}

val stats : t -> stats

val meter : t -> Mc_hypervisor.Meter.t
(** The merge of every serviced request's meter: the engine's total
    metered VMI work, comparable against the same requests run
    standalone. *)

val shard_meters : t -> Mc_hypervisor.Meter.t array
(** Per-shard merges of the same counts: shard [i]'s metered work. The
    max over shards of their priced virtual seconds is the service's
    critical path — what the wall clock would be on hardware with one
    core per shard, and the honest scaling measure on a host with fewer
    cores than shards. *)

val cloud : t -> Mc_hypervisor.Cloud.t

val anchor_root : t -> request -> string option
(** [anchor_root t request] is the hex Merkle anchor digest
    ({!Modchecker.Orchestrator.merkle_root}) of the module the request
    was about, read from the engine's shared incremental cache: the
    target VM's root for a check (falling back to the first VM holding
    one), the first cached root for a survey; [None] only for a lists
    walk or a module with no cached print. Dom0-local — it reads
    what servicing the request just cached, which is what an attestation
    ledger entry for that response must anchor. *)
