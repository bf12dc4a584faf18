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
          retries, or the deadline expired), with the reason. They are
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
  unreachable_on : (int * string) list;
      (** VMs whose fetch failed (fault or deadline), with reasons;
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
(** ["modchecker/report@1"] — the tag {!to_json} emits and {!of_json}
    requires. *)

val survey_schema : string
(** ["modchecker/survey@1"]. *)

val to_json : module_report -> Mc_util.Json.t
(** Machine-readable form: schema tag, verdict, vote and quorum counts,
    unreachable VMs, flagged artifacts, and per-comparison per-artifact
    digests. Round-trips through {!of_json}. *)

val of_json : Mc_util.Json.t -> (module_report, string) result
(** Parse {!to_json}'s output back. Errors on a missing or different
    [schema] tag, and on any missing or mistyped field. *)

val survey_to_json : survey -> Mc_util.Json.t
(** Round-trips through {!survey_of_json}. *)

val survey_of_json : Mc_util.Json.t -> (survey, string) result
