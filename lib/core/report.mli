(** Check results: the majority vote of §III-B ("Discussion") and
    per-artifact detail for operators. *)

type comparison = {
  other_vm : int;  (** DomU index compared against. *)
  result : Checker.pair_result;
}

type verdict =
  | Intact  (** Majority vote passed with quorum. *)
  | Infected  (** Majority vote failed with quorum. *)
  | Degraded of string
      (** Too few VMs answered for the vote to mean anything; the string
          says why (e.g. ["2/14 comparison VM(s) responded (quorum 0.5)"]).
          A degraded verdict is an availability alarm, never an integrity
          one. *)

val verdict_key : verdict -> string
(** ["intact"], ["infected"], ["degraded"]. *)

val default_quorum : float
(** 0.5 — at least half the surveyed VMs must answer. *)

type module_report = {
  module_name : string;
  target_vm : int;
  comparisons : comparison list;
  matches : int;  (** n — comparisons in which every artifact matched. *)
  total : int;  (** t-1 — number of comparisons performed. *)
  majority_ok : bool;  (** n > (t-1)/2: the module is considered intact. *)
  flagged_artifacts : Artifact.kind list;
      (** Artifacts mismatching in a strict majority of comparisons —
          i.e. the target's own deviations, not some other VM's. *)
  unreachable : (int * string) list;
      (** Comparison VMs that could not be introspected (faults exhausted
          retries), with the reason. They are
          excluded from the vote — [total] does not include them. *)
  surveyed : int;  (** Comparison VMs asked. *)
  responded : int;  (** Comparison VMs that answered ([surveyed] minus
          unreachable); a VM lacking the module responds — absence is an
          answer, counted as a vote mismatch. *)
  voted : int;  (** Comparisons counted in the vote (= [total]). *)
  verdict : verdict;
}

type survey = {
  survey_module : string;
  vm_indices : int list;
  missing_on : int list;  (** VMs where the module was not found. *)
  deviant_vms : int list;
      (** VMs whose module fails the majority vote against the pool. *)
  agreement_classes : int list list;
      (** Partition of the present VMs into mutually-matching factions,
          largest first. One class = a healthy pool; two large classes is
          the §III-B SQL-Slammer scenario (mass infection splits the cloud
          into factions and no majority can be trusted — everything is
          flagged for deeper analysis). *)
  pairwise_matches : ((int * int) * bool) list;
      (** Every pair of present VMs, in VM order, and whether the two
          copies match. A full survey compares each pair with
          Algorithm 2. An incremental survey whose Merkle prints
          disagree escalates by print class: a pair across two classes
          that the representatives' matches join, directly or through
          other classes, carries the representatives' result, which
          Algorithm 2 may not reproduce for the pair itself. Every other
          pair, and so [agreement_classes], [deviant_vms] and the
          verdict, equals the full survey's (see {!Orchestrator.survey}). *)
  unreachable_on : (int * string) list;
      (** VMs whose fetch failed (faults exhausted retries), with reasons;
          excluded from the vote and from [missing_on]. *)
  s_surveyed : int;  (** VMs in the pool. *)
  s_responded : int;  (** VMs that answered (present or verifiably absent). *)
  s_voted : int;  (** VMs whose copy entered the pairwise vote. *)
  s_verdict : verdict;
      (** [Degraded] below the quorum floor; else [Infected] iff any VM
          deviates. Module absence alone is not an infection verdict —
          it raises its own (missing-module) alarm. *)
}
(** A full-mesh sweep: every VM's copy voted against every other. *)

val quorum_met : quorum:float -> surveyed:int -> responded:int -> bool
(** [quorum_met ~quorum ~surveyed ~responded] — at least
    [quorum *. surveyed] of the surveyed VMs answered (and at least
    one did). *)

val cohort_deviants : members:int list -> int list list -> int list
(** [cohort_deviants ~members classes] is the strict-majority vote of
    one version cohort, shared by the pool survey (voters are VMs) and
    the fleet coordinator (voters are hosts). [classes] partitions
    [members] into groups that agree with each other. With zero or one
    class nobody deviates; when the largest class is a strict majority
    of [members], everyone outside it deviates; otherwise the cohort is
    inconsistent beyond attribution and every member is returned. The
    result is sorted and does not depend on the order of [classes]. *)

val make :
  module_name:string ->
  target_vm:int ->
  ?unreachable:(int * string) list ->
  ?surveyed:int ->
  ?quorum:float ->
  comparison list ->
  module_report
(** [make ~module_name ~target_vm comparisons] computes the vote, the
    flagged artifact set, and the quorum verdict. [surveyed] defaults to
    [|comparisons| + |unreachable|]; [quorum] to {!default_quorum}. With
    no unreachable VMs the verdict is [Intact]/[Infected] exactly as
    [majority_ok] says. *)

val verdict_string : module_report -> string
(** ["INTACT (n/t)"], ["SUSPICIOUS (n/t): <artifacts>"], or
    ["DEGRADED (n/t): <reason>"]. *)

val to_table : module_report -> string
(** Render the per-comparison, per-artifact detail as an ASCII table. *)

val pp : Format.formatter -> module_report -> unit

(** {1 Versioned machine-readable form}

    The JSON forms carry a [schema] tag so engine clients and scripts can
    parse reports instead of scraping the table renderer, and can refuse
    documents from an incompatible future version. *)

val schema : string
(** ["modchecker/report@2"] — the tag {!to_json} emits and {!of_json}
    requires. A [report@1] document is refused. *)

val survey_schema : string
(** ["modchecker/survey@1"]. *)

val to_json : module_report -> Mc_util.Json.t
(** Machine-readable form: schema tag, verdict, vote and quorum counts,
    unreachable VMs, flagged artifacts, and per-comparison per-artifact
    digests. Each artifact's verdict is [artifact], [match],
    [md5_target], [md5_other] and [addresses_adjusted].

    The report-level [artifacts] list is the reference: the verdicts of
    the first comparison whose artifacts all match, else of the first
    comparison ([[]] with no comparisons). Each comparison writes
    [other_vm], [all_match] and [total_adjusted], and its own
    [artifacts] only when its verdicts are not structurally equal to the
    reference. On a clean pool every comparison holds the reference, so
    a 15-VM report writes one verdict list instead of fourteen, and a
    deviating comparison still lists all of its own verdicts. Nothing is
    dropped: {!of_json} rebuilds each omitted list from the reference,
    so [of_json (to_json r) = Ok r] for every report. *)

val of_json : Mc_util.Json.t -> (module_report, string) result
(** Parse {!to_json}'s output back, giving each comparison without its
    own [artifacts] the reference list. Total: errors, never raises, on
    a missing or different [schema] tag, a missing or mistyped field
    (the reference list included) or any other malformed document. *)

val survey_to_json : survey -> Mc_util.Json.t
(** Round-trips through {!survey_of_json}. *)

val survey_of_json : Mc_util.Json.t -> (survey, string) result
