(** The one place CLI exit codes are defined.

    Every subcommand (and the engine's [serve] batch mode) maps its result
    through this module instead of scattering integer literals:

    - [ok] (0): everything checked is intact.
    - [error] (1): usage or runtime error — nothing was decided.
    - [infected] (2): a quorum-backed integrity verdict failed somewhere.
    - [degraded] (3): some verdict lost quorum — an availability signal,
      deliberately distinct from an integrity one.

    [combine] merges per-request codes into a batch verdict with severity
    [error > degraded > infected > ok]: a batch that could not be decided
    must not pass for a decided one. *)

type t = int

val ok : t
(** 0 — intact. *)

val error : t
(** 1 — usage/runtime error. *)

val infected : t
(** 2 — integrity verdict failed. *)

val degraded : t
(** 3 — quorum lost; the verdict means nothing either way. *)

val of_verdict : Report.verdict -> t
(** [Intact] → {!ok}, [Infected] → {!infected}, [Degraded] →
    {!degraded}. *)

val of_survey : Report.survey -> t
(** A survey's exit: {!degraded} below quorum, else {!infected} when any
    VM deviates or misses the module, else {!ok}. *)

val of_lists : Orchestrator.list_comparison -> t
(** A module-list comparison's exit: {!degraded} when any VM's walk
    failed, else {!infected} when any module is non-uniform, else
    {!ok}. *)

val combine : t -> t -> t
(** Merge two codes by severity ([error] > [degraded] > [infected] >
    [ok]). *)

val combine_all : t list -> t
(** Fold of {!combine} over a batch; [ok] for the empty batch. *)

val of_alarms : Patrol.alarm list -> t
(** A patrol run's exit: each [Quorum_loss] alarm counts {!degraded},
    every integrity alarm {!infected}, folded with {!combine}; [ok] when
    nothing was raised. *)

val exit_with : t -> unit
(** [exit_with c] exits the process with [c] when it is not {!ok}, and
    returns for {!ok} so the subcommand falls through to the normal
    success path. Subcommands call it last, making the process exit
    status the verdict. *)
