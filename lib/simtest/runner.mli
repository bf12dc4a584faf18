(** Deterministic execution of one scenario with oracle validation.

    The runner builds the cloud the scenario describes, applies its
    events in order, and after {e every} step cross-examines the checker
    against the {!Oracle}:

    - a full pairwise survey (Algorithm 2 on every pair, the
      paper's vote) of the step's focus modules
      (the rotating watch entry plus whatever module the event touched)
      must report exactly the deviants, missing VMs, verdict, and exit
      code the ledger predicts;
    - an incremental survey over campaign-wide shared state must agree
      with the full survey (digest parity) and with the ledger;
    - engine bursts must return verdicts the ledger predicts, every
      admitted request's deferred must settle, and drain must account
      for every submission;
    - metered cost must grow strictly monotonically, and a steady-state
      incremental survey (nothing mutated since the cache warmed, no
      deviants forcing escalation to the full pipeline) must cost less
      than the full one;
    - telemetry counter deltas must match the ledger's reboot, restore,
      and snapshot counts.

    While a fault plan is armed, validation weakens exactly where
    dropouts legitimately change results — but a result that claims all
    VMs responded is held to the strict oracle prediction even then, a
    VM reported as missing a module must really lack it, and a
    deviation can only ever be reported when some infected copy exists.

    Evasive adversaries ({!Event.t.Evade}) launch live
    {!Mc_malware.Strategy} machines on the campaign's virtual clock
    (event [k] fires at [t = k+1]); the runner ticks every machine to
    the step's instant {e before} predicting or observing anything, so
    the time-aware oracle's windows line up with the guest's true state.
    The trap session additionally audits the two Dom0 read channels
    against each other every reaction ([audit_anchors]), and its alarm
    sets are held to the oracle's [Anchor_mismatch] predictions.

    Everything observable lands in a transcript built only from
    deterministic inputs (no wall-clock, no scheduler-dependent meters),
    so two runs of the same scenario produce byte-identical
    transcripts. *)

type failure = { f_step : int; f_reason : string }
(** [f_step] is the event index (scenario length for end-of-campaign
    checks). *)

type outcome = {
  r_transcript : string;
  r_failure : failure option;
  r_applied : int;  (** Events applied. *)
  r_skipped : int;  (** Events whose precondition did not hold. *)
  r_classes : (string * int) list;
      (** Sorted per-class counts of {!Event.class_keys} over the
          {e applied} events — the coverage accounting soaks aggregate. *)
}

val run :
  ?break_checker:bool -> ?quorum:float -> Event.scenario -> outcome
(** [run sc] executes the scenario. [break_checker] arms the
    self-sabotage mode used to prove the oracle has teeth: each step it
    flips one digest byte inside the incremental cache (via
    {!Modchecker.Digest_cache.tamper}), which the digest-parity check
    must catch. [quorum] defaults to {!Modchecker.Report.default_quorum}. *)
