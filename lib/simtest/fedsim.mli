(** Whole-fleet simulation testing for the federation layer.

    Campaigns generate random sequences of host outages, minority per-VM
    infections, coordinated whole-host infections, and fleet sweeps over
    a mixed-build topology, and cross-examine every sweep against a
    ground-truth ledger: exact deviant (host, VM) sets, exact
    deviant-host ballots per version cohort (with the electorate shrunk
    by outages), zero false positives from version skew, and the
    degraded-outranks-infected exit-code law under host quorum 1.0.

    The generator constrains scenarios to the strict-majority region —
    per-VM infections stay a minority of their host's pool and
    coordinated hosts a minority of their cohort — where the oracle's
    prediction is provably unique. Sweeps outside that region are
    covered by the federation unit tests instead. *)

type event =
  | Infect of { host : int; vm : int }
      (** Inline-hook [hal.dll] on one VM of one host. *)
  | Infect_host of int
      (** Hook every VM of the host identically — invisible to the
          host's own vote, caught only by the cross-host ballot. *)
  | Host_down of int
  | Host_up of int
  | Sweep

val event_to_string : event -> string

type scenario = {
  fs_hosts : int;
  fs_vms_per_host : int;
  fs_levels : int list;  (** Cycled across hosts. *)
  fs_seed : int64;
  fs_events : event list;
}

val gen_scenario :
  ?hosts:int -> ?vms_per_host:int -> ?levels:int list ->
  seed:int64 -> steps:int -> unit -> scenario
(** Deterministic: same arguments, same scenario. Defaults: 6 hosts x
    5 VMs, builds [[1; 2]] cycled, so each cohort has three voters. *)

type failure = { ff_step : int; ff_reason : string }

type outcome = {
  fr_transcript : string;  (** Deterministic event-by-event log. *)
  fr_failure : failure option;
  fr_sweeps : int;  (** Sweeps validated against the oracle. *)
}

val run : scenario -> outcome
(** Boot the topology, apply the events in order, validate every sweep. *)

val shrink : ?budget:int -> scenario -> failure -> scenario * failure * int
(** Shrink a failing scenario's events with {!Shrink.ddmin}, pass after
    pass until one removes nothing or [budget] runs (default 100) are
    spent; returns the smallest still-failing scenario found, its
    failure, and the number of runs spent. *)

type campaign_result = {
  fc_campaigns : int;
  fc_sweeps : int;
  fc_transcript : string;
  fc_failures : (int * int64 * failure * scenario) list;
      (** (campaign, generator seed, shrunk failure, shrunk scenario). *)
}

val run_campaigns :
  ?keep_going:bool -> ?shrink_budget:int -> ?hosts:int ->
  ?vms_per_host:int -> ?levels:int list ->
  seed:int64 -> steps:int -> campaigns:int -> unit -> campaign_result
(** Campaign [i] uses generator seed [seed + i]; stops at the first
    failure unless [keep_going]. *)

val render_failure : int * int64 * failure * scenario -> string
(** Human-readable report with the shrunk event list. *)
