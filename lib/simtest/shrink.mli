(** Scenario minimization.

    When a campaign fails, the raw scenario is rarely the story — most
    of its events are noise. The shrinker reduces it to a (locally)
    minimal scenario that still fails: it truncates everything after the
    failing step, delta-debugs the event list (ddmin-style chunk
    removal, halving chunk sizes down to single events), shrinks the VM
    pool, and drops watch modules — looping to a fixpoint under a run
    budget. Any failure counts as preservation (the minimal scenario may
    surface the same bug through a different assertion; what matters is
    a small, deterministic, replayable reproduction). *)

type result = {
  sh_scenario : Event.scenario;  (** The minimized scenario. *)
  sh_failure : Runner.failure;  (** Its failure. *)
  sh_runs : int;  (** Candidate runs spent. *)
}

val ddmin : fails:('a list -> bool) -> 'a list -> 'a list
(** [ddmin ~fails xs] is one delta-debugging pass over [xs]: it tries
    removing chunks of half the list, then of halving sizes down to
    single elements, and keeps every removal whose result still [fails].
    The result still fails if [xs] did, and is never longer. Both
    simulators minimize their event lists with it. *)

val shrink :
  ?budget:int ->
  ?break_checker:bool ->
  ?quorum:float ->
  Event.scenario ->
  Runner.failure ->
  result
(** [shrink sc failure] — [sc] must already fail (with [failure]);
    [budget] bounds candidate executions (default 300). *)
