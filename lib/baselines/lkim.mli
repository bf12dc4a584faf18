(** LKIM-style baseline (Loscocco et al., §II): integrity measurement with
    an {e external, untainted} reference copy and loader metadata.

    Given the module's load base (from the kernel's loading information —
    here, the LDR entry read over VMI) LKIM simulates loading its pristine
    reference copy at that base and hash-compares the result against guest
    memory. It detects both memory-only and disk-then-load infections, but
    needs a maintained reference for every module version — the very
    dictionary burden ModChecker avoids.

    The same loader metadata makes RVA reversal exact: the reference's
    relocations, validated per section, are the slot tables
    ([Modchecker.Orchestrator.slot_tables]) that [Modchecker.Rva.canonical]
    strips by. The alignment ablation contrasts that with Algorithm 2's
    heuristic. *)

type verdict = {
  lkim_module : string;
  mismatched : Modchecker.Artifact.kind list;
  clean : bool;
}

val check :
  Mc_hypervisor.Dom.t ->
  module_name:string ->
  reference:Bytes.t ->
  (verdict, string) result
(** [check dom ~module_name ~reference] introspects the module from the
    guest and compares it to a simulated load of [reference] at the same
    base. *)
