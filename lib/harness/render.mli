(** Text rendering of the reproduced figures and tables, shared by the
    bench harness and the CLI. *)

val detection_table : (Scenario.detection, string) result list -> string
(** The §V-B results as one table: expected vs observed flags, verdicts. *)

val fig_series : title:string -> Figures.fig_point list -> string
(** Fig. 7/8 rendering: a table of per-component and total times plus an
    ASCII chart of the four series. *)

val fig9 : Figures.fig9_result -> string
(** Fig. 9 rendering: CPU/memory time series with introspection windows
    marked, and the perturbation summary line. *)

val ablation_table : Figures.ablation_row list -> string

val cross_pointer_table : Figures.cross_pointer_row list -> string

val parallel_table : Figures.parallel_row list -> string

val incremental_table : Figures.incremental_row list -> string
(** X8 rendering: full vs incremental steady-state sweep cost by pool
    size. *)

val merkle_table : Figures.merkle_row list -> string
(** X13 rendering: print-building vs steady Merkle sweep cost by dirty
    pages per VM, with leaf/interior re-hash counts. *)

val strategy_table : Figures.strategy_row list -> string

val patrol_table : Figures.patrol_row list -> string

val events_table : Figures.events_row list -> string
(** X14 rendering: polling intervals vs event-driven write traps on idle
    cost and time-to-detect. *)

val fault_table : Figures.fault_row list -> string
(** X9 rendering: detection suite results by injected transient-fault
    rate, with retry/abort counters. *)

val baseline_table : Figures.baseline_row list -> string

val engine_table : Figures.engine_row list -> string

val federation_table : Figures.federation_row list -> string
(** X12 as a table. *)

val replay_table : Figures.replay_row list -> string

val evasion_table : Figures.evasion_row list -> string
(** X16 rendering: detection probability and mean TTD per patrol mode
    against the TOCTOU restorer. *)
