(** Whole-pool health assessment: every module on every VM, in one
    report — the operator's dashboard view of {e one} cloud.

    For each module name seen anywhere in the pool it runs a survey (so a
    module loaded on only some VMs is still checked among those), collects
    the deviant/missing sets, and aggregates a per-VM suspicion score.

    Formerly named [Fleet]; renamed so it cannot be confused with
    {!Mc_federation}, which coordinates many pools across hosts. *)

type module_status = {
  ms_module : string;
  ms_present_on : int;  (** VMs where the module is loaded. *)
  ms_deviants : int list;
  ms_missing : int list;  (** Among VMs that *should* have it (see below). *)
  ms_consistent : bool;
}

type report = {
  fr_modules : module_status list;  (** Sorted by module name. *)
  fr_suspicion : (int * int) list;
      (** (VM index, number of findings implicating it), descending,
          suspicious VMs only. *)
  fr_unreachable : (int * string) list;
      (** VMs whose module-list walk faulted, with reasons. They take no
          part in any module's presence vote. *)
  fr_clean : bool;
      (** No deviants, no hidden modules, no unreadable list anywhere. *)
}

val assess : ?config:Orchestrator.Config.t -> Mc_hypervisor.Cloud.t -> report
(** [assess cloud] surveys the union of all VMs' module lists. A module
    missing from a minority of its version cohort counts against those
    VMs (the DKOM-hiding signal); one missing from most of a cohort is
    treated as optionally-loaded there and only surveyed among its
    holders. The cohort scope keeps a heterogeneous pool honest: a driver
    shipped only with the patched build never implicates the unpatched
    VMs. Each VM's list is read by {!Orchestrator.list_walk}; a VM whose
    walk faults lands in [fr_unreachable] instead of the vote. *)

val to_table : report -> string

val to_json : report -> Mc_util.Json.t

val summary : report -> string
(** One line: ["FLEET CLEAN (9 modules)"],
    ["FLEET SUSPICIOUS: Dom3 implicated by 2 finding(s)"], or — when a
    list walk faulted, which outranks any finding —
    ["FLEET DEGRADED: module list unreadable on Dom2"]. *)
