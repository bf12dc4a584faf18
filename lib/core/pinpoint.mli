(** Patched-function pinpointing (the dAnubis idea from §II: "the
    difference in addresses helps in identifying the function that has
    been patched").

    When ModChecker flags a .text mismatch, this module maps the residual
    byte differences (after RVA adjustment) back to function names using a
    debug-symbol view of the module ([Mc_pe.Catalog.symbols] plays the
    PDB's role), so the operator learns {e which} function the rootkit
    touched, not just that the section changed. *)

type finding = {
  pf_function : string;  (** Name of the patched function. *)
  pf_fn_rva : int;  (** The function's RVA. *)
  pf_first_diff_rva : int;  (** RVA of the first differing byte inside it. *)
  pf_diff_bytes : int;  (** Differing bytes attributed to this function. *)
}

val diff_offsets : ?ranges:(int * int) list -> Bytes.t -> Bytes.t -> int list
(** [diff_offsets a b] is every byte position at which the buffers differ
    (positions beyond the shorter length count). Ascending. [?ranges]
    restricts the scan to the given (offset, length) spans — the Merkle
    descent's deviant pages ({!Checker.deviant_ranges}) — so localization
    touches O(deviant) bytes instead of the whole section. Spans may be
    given in any order; out-of-bounds parts are clamped. *)

val attribute :
  symbols:(string * int) list ->
  section_rva:int ->
  int list ->
  finding list
(** [attribute ~symbols ~section_rva offsets] groups section-relative diff
    offsets by the function containing them. [symbols] are
    (name, rva) pairs; they need not be sorted. Differences before the
    first symbol are attributed to a pseudo-function ["<headers/pad>"]. *)

val descent_ranges :
  base1:int ->
  Artifact.t list ->
  base2:int ->
  Artifact.t list ->
  (int * int) list option
(** [descent_ranges ~base1 arts1 ~base2 arts2] RVA-adjusts the two .text
    artifacts against each other (Algorithm 2), builds a per-page Merkle
    tree over each, and descends them ({!Checker.deviant_ranges}): the
    (offset, length) spans of the pages that still differ, ready to pass
    as [analyze_text_pair]'s [?ranges]. [None] when either side lacks a
    .text artifact or the two differ in size (no tree shapes can
    agree). *)

val analyze_text_pair :
  ?ranges:(int * int) list ->
  base1:int ->
  Artifact.t list ->
  base2:int ->
  Artifact.t list ->
  symbols:(string * int) list ->
  (finding list, string) result
(** [analyze_text_pair ~base1 arts1 ~base2 arts2 ~symbols] RVA-adjusts the
    two .text artifacts against each other (Algorithm 2) and attributes
    what still differs. An empty list means the sections reconcile —
    i.e. nothing was patched. [?ranges] (from a Merkle descent) restricts
    the byte survey to the deviant pages; it is ignored on the
    size-mismatch path, where no tree shapes can agree. *)
