(** Generators for every evaluation figure, plus the ablation/extension
    experiments from DESIGN.md. *)

type phase_seconds = {
  searcher_s : float;
  parser_s : float;
  checker_s : float;
}

val phase_seconds :
  Mc_hypervisor.Costs.t -> Modchecker.Orchestrator.outcome -> phase_seconds
(** Price a check's metered operations into per-component virtual CPU
    seconds (Fig. 7/8's three component curves). *)

val per_vm_seconds :
  Mc_hypervisor.Costs.t -> Modchecker.Orchestrator.outcome -> float list
(** Per-compared-VM virtual CPU seconds — the job list for the
    scheduler. *)

type fig_point = {
  n_vms : int;  (** Number of comparison VMs (Fig. 7/8 x-axis). *)
  searcher_ms : float;
  parser_ms : float;
  checker_ms : float;
  total_ms : float;  (** Simulated wall time of the whole check. *)
}

val fig7_idle :
  ?max_vms:int -> ?cores:int -> ?module_name:string -> ?seed:int64 -> unit ->
  fig_point list
(** Fig. 7: runtime vs number of mostly-idle VMs compared ([http.sys] by
    default, as in §V-C.1). The real pipeline runs against the simulated
    guests; metered operation counts are priced and scheduled. *)

val fig8_loaded :
  ?max_vms:int -> ?cores:int -> ?module_name:string -> ?seed:int64 -> unit ->
  fig_point list
(** Fig. 8: the same sweep with every participating VM running the
    HeavyLoad-equivalent; nonlinear growth appears once loaded vCPUs exceed
    the core count. *)

type fig9_result = {
  samples : Mc_workload.Monitor.sample list;
  windows : (float * float) list;
  perturbation_pct : float;
      (** |CPU busy inside − outside| introspection windows. *)
}

val fig9_guest_impact : ?seed:int64 -> unit -> fig9_result
(** Fig. 9: in-guest resource readings while ModChecker introspects during
    two windows. *)

type ablation_row = {
  alignment : int;  (** Module-base alignment under test. *)
  trials : int;
  heuristic_ok : int;
      (** Trials where Algorithm 2 made the section pair hash-equal. *)
  exact_ok : int;
      (** Trials where the reloc-canonical form (golden slot tables,
          {!Modchecker.Checker.own}) did. *)
  mean_residual_diffs : float;
      (** Mean byte positions still differing after Algorithm 2. *)
}

val alignment_ablation :
  ?module_name:string -> ?trials:int -> ?seed:int64 -> unit -> ablation_row list
(** X1a: Algorithm 2's offset heuristic versus the reloc-canonical form
    across base alignments (64 KiB Windows default, and 4 KiB page).
    Result: both are exact at both alignments — for pure relocation
    differences the first differing byte of the two absolute addresses
    provably sits at the same position as the first differing byte of the
    two bases (equal bytes below it imply equal carries into it), so the
    offset back-up always lands on the slot start. The interesting failure
    mode is elsewhere — see {!cross_pointer_ablation}. *)

type cross_pointer_row = {
  cross_pointers : int;
      (** Import-style slots in the hashed section whose values are bound
          to {e another} module's per-VM base. *)
  cp_trials : int;
  heuristic_clean : int;
      (** Trials where Algorithm 2 still made the pair hash-equal. *)
  exact_clean : int;  (** Same for the reloc-canonical form. *)
  mean_residual : float;
}

val cross_pointer_ablation :
  ?trials:int -> ?seed:int64 -> unit -> cross_pointer_row list
(** X1b: what actually breaks RVA adjustment. When a hashed section holds
    pointers bound to another module's load address (an IAT in .rdata, say),
    the value difference across VMs is {e that} module's base delta, not
    this one's: [addr - own_base] differs per VM, so Algorithm 2 cannot
    reconcile the slots, and neither can the reloc-canonical form — both
    report a false mismatch. The paper's design avoids this only because
    import tables live in writable (unhashed) sections. *)

type parallel_row = {
  workers : int;
  wall_ms : float;  (** Simulated wall time at 15 VMs. *)
  speedup : float;
}

val parallel_sweep :
  ?vms:int -> ?cores:int -> ?module_name:string -> ?seed:int64 -> unit ->
  parallel_row list
(** X2: the paper's proposed parallel memory access — one sequential
    check's per-VM meters scheduled on 1, 2, 4 and 8 Dom0 workers
    ([Sched.run_jobs]). *)

type strategy_row = {
  st_name : string;
  st_bytes_hashed : int;
  st_bytes_scanned : int;
  st_checker_ms : float;  (** Priced Integrity-Checker CPU time. *)
  st_deviants : int list;
}

val survey_strategy_table :
  ?vms:int -> ?seed:int64 -> ?module_name:string -> unit -> strategy_row list
(** X4: pairwise (paper) vs Merkle-print (extension) survey of one module
    across the pool, with an infected VM present — same verdicts. Prints
    hash each copy once, O(t) instead of O(t²); a disagreement inside a
    cohort escalates to Algorithm 2 by print class. *)

type patrol_row = {
  pt_interval_s : float;
  pt_ttd_s : float;  (** Time from infection to first alarm. *)
  pt_sweeps : int;
  pt_cpu_duty_pct : float;  (** Dom0 CPU spent checking / elapsed time. *)
}

val patrol_tradeoff :
  ?vms:int -> ?seed:int64 -> unit -> patrol_row list
(** X5: the patrol service's interval ↔ time-to-detect ↔ CPU-duty
    trade-off; an inline hook lands at t=50 s and each row patrols with a
    different sweep interval. *)

type events_row = {
  ev_label : string;  (** ["poll 30s"] or ["event-driven"]. *)
  ev_steady_cpu_s : float;
      (** Dom0 CPU after the first sweep over a 600 s idle window. *)
  ev_ttd_s : float;  (** Time from infection to first integrity alarm. *)
  ev_checks : int;  (** Sweeps plus trap reactions of the detection run. *)
}

val events_tradeoff : ?vms:int -> ?seed:int64 -> unit -> events_row list
(** X14: polling at several intervals vs event-driven write-trap
    checking, on idle steady-state cost and on time-to-detect for an
    inline hook landing at t=50 s. One row per poll interval plus one
    for trap mode. *)

type incremental_row = {
  ir_vms : int;  (** Pool size. *)
  ir_full_sweep_s : float;
      (** Steady-state CPU of one full (non-incremental) sweep. *)
  ir_first_sweep_s : float;
      (** The incremental patrol's first (cold, cache-filling) sweep. *)
  ir_steady_sweep_s : float;
      (** Mean CPU of the incremental patrol's later sweeps. *)
  ir_speedup : float;  (** Full steady / incremental steady. *)
}

val incremental_steady_state :
  ?pool_sizes:int list -> ?seed:int64 -> unit -> incremental_row list
(** X8: full vs incremental patrol sweeps over an idle pool. The full
    sweep is the paper's pairwise survey of every watched module. The
    incremental first sweep pays full price plus log-dirty setup; each
    later sweep prices as staleness probes, so its cost stays near-flat as
    the pool grows while the full sweep grows quadratically. *)

type merkle_row = {
  mk_dirty : int;  (** .text pages dirtied per VM between sweeps. *)
  mk_build_s : float;
      (** CPU of the warm sweep that built the prints: a full fetch and
          hash of every copy. *)
  mk_merkle_s : float;  (** The measured k-dirty sweep's CPU. *)
  mk_leaves : int;  (** Leaves re-hashed during the measured sweep. *)
  mk_nodes : int;  (** Interior Merkle digests computed. *)
  mk_speedup : float;  (** Build / measured. *)
}

val merkle_dirty_sweep :
  ?vms:int -> ?dirty:int list -> ?module_name:string -> ?seed:int64 ->
  unit -> merkle_row list
(** X13: O(dirty) refresh cost. Every VM's module has k .text pages
    dirtied (content unchanged) between a warm sweep and a measured one;
    the measured sweep re-hashes k leaves plus O(log n) interior nodes
    instead of rebuilding each print, so the speedup over the building
    sweep is largest at small k and every verdict stays clean. *)

type fault_row = {
  fl_transient : float;  (** Injected per-attempt map failure rate. *)
  fl_scenarios : int;  (** Experiments run (6: E1–E4 plus extensions). *)
  fl_detected : int;  (** Infections detected with a quorum-backed vote. *)
  fl_exact : int;  (** Exact flagged sets with a clean control VM. *)
  fl_degraded : int;  (** Experiments that lost quorum (availability). *)
  fl_errors : int;  (** Experiments that errored outright. *)
  fl_retries : int;  (** VMI mapping retries spent across the suite. *)
  fl_aborts : int;  (** Retry budgets exhausted (→ unreachable VMs). *)
}

val fault_sweep :
  ?vms:int -> ?rates:float list -> ?seed:int64 -> ?fault_seed:int -> unit ->
  fault_row list
(** X9: the full detection suite re-run under increasing transient-fault
    rates (default 0 to 20%). Bounded retries absorb the faults: verdicts
    stay exact and quorum-backed across the sweep while the retry counter
    grows roughly linearly with the rate; rate 0 must reproduce the
    fault-free results bit for bit. *)

type baseline_cell = Detected | Missed | False_alarm | Clean

val baseline_cell_string : baseline_cell -> string

type baseline_row = {
  scenario : string;
  svv : baseline_cell;
  hashdb : baseline_cell;
  lkim : baseline_cell;
  modchecker : baseline_cell;
}

val baseline_table : ?vms:int -> ?seed:int64 -> unit -> baseline_row list
(** X3: SVV / signed-hash DB / LKIM / ModChecker across four scenarios:
    memory-only hook, disk-then-load patch, legitimate cloud-wide update,
    and cloud-wide identical infection (ModChecker's documented blind
    spot). *)

type engine_row = {
  er_dup : int;  (** How many times each distinct survey is asked. *)
  er_requests : int;  (** Batch size (distinct modules × [er_dup]). *)
  er_standalone_s : float;
      (** The batch as independent one-shot {!Modchecker.Orchestrator}
          calls, in virtual CPU seconds. *)
  er_engine_s : float;  (** The same batch through one {!Mc_engine}. *)
  er_coalesced : int;  (** Submissions answered by an in-flight twin. *)
  er_speedup : float;  (** Standalone / engine. *)
}

val engine_throughput :
  ?vms:int -> ?dups:int list -> ?seed:int64 -> unit -> engine_row list
(** X10: overlapping-batch cost, engine vs one-shot loop. Duplicate
    fan-in is where the engine earns its keep: coalescing and the shared
    incremental state turn re-asks into staleness probes, so the speedup
    column should grow with [er_dup]. *)

type federation_row = {
  fd_hosts : int;
  fd_racks : int;
  fd_vms : int;  (** Total VMs across the fleet. *)
  fd_levels : int;  (** Distinct kernel builds (version cohorts). *)
  fd_detected : bool;
      (** The one staged infection was found at its exact (host, VM)
          locus and nowhere else. *)
  fd_skew_fp : int;
      (** Deviant VMs + deviant hosts reported for a clean module — the
          version-skew false-positive count; must be 0. *)
  fd_parity : bool;
      (** The fleet's exit code equals the victim host's own standalone
          survey exit code: one hop of hierarchy loses no detection. *)
  fd_fleet_cpu_s : float;  (** Sum of per-host virtual response times. *)
  fd_critical_s : float;  (** Slowest host — the fan-out floor. *)
}

val federation_scale :
  ?hosts:int list -> ?vms_per_host:int -> ?seed:int64 -> unit ->
  federation_row list
(** X12: detection parity and metered cost as the fleet grows. Each
    point boots [n] hosts (three builds cycled across them), hooks one
    VM on one host, and surveys the whole fleet: detection must stay
    exact, skew false positives zero, and cost split into total CPU
    (grows with hosts) vs critical path (stays flat — hosts answer in
    parallel). *)

type replay_row = {
  rp_shards : int;
  rp_requests : int;  (** Frames pushed through the session. *)
  rp_responses : int;
  rp_coalesced : int;  (** Submissions answered by an in-flight twin. *)
  rp_busy : int;  (** Busy replies (admission-control events). *)
  rp_retries : int;
  rp_critical_s : float;
      (** Busiest shard's priced virtual seconds — the wall clock on
          one-core-per-shard hardware. *)
  rp_total_s : float;  (** Total priced work across shards. *)
  rp_rps : float;  (** Requests per virtual critical-path second. *)
  rp_speedup : float;  (** [rp_rps] over the first row's. *)
  rp_ledger_ok : bool;
      (** The session's hash chain verified, one entry per response. *)
  rp_violations : int;  (** Oracle mismatches; must be 0. *)
}

val replay_throughput :
  ?shard_counts:int list ->
  ?requests:int ->
  ?dup_percent:int ->
  ?seed:int64 ->
  unit ->
  replay_row list
(** X15: seeded traffic replayed through a full [Mc_engine.Serve]
    session per shard count — same stream, same window, ledger attested
    and verified — reporting virtual-clock requests/s, coalesce volume,
    and admission-control traffic as the engine gains shards. The rps
    column should scale with shards (the bench asserts ≥2× from 1 to 4)
    while coalesced stays roughly constant (it depends on the duplicate
    rate, not the shard count). *)

type evasion_row = {
  ez_label : string;  (** ["poll 30s"] or ["event-driven"]. *)
  ez_detect_p : float;  (** Trials detected / trials run. *)
  ez_mean_ttd_s : float;
      (** Mean time-to-detect over the detected trials; [nan] when
          nothing was detected. *)
  ez_trials : int;
}

val evasion_detection :
  ?vms:int ->
  ?trials:int ->
  ?dwell:float ->
  ?period:float ->
  ?seed:int64 ->
  unit ->
  evasion_row list
(** X16: detection probability vs patrol cadence against a TOCTOU
    restorer ({!Mc_malware.Strategy.toctou}, dirty [dwell] of every
    [period] seconds), with the machine's launch phase spread evenly
    over one period across the trials. Polling detects only when a sweep
    start lands inside a dirty window — probability decays toward the
    dwell ratio as the interval grows — while the event-driven patrol
    traps the infect write itself and detects every phase (the bench
    asserts ≥ 0.99 there and ≤ 0.5 for 30 s polling). *)
