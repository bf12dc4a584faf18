(** Relative-virtual-address adjustment — the paper's Algorithm 2 plus a
    reloc-guided exact variant.

    After loading, every address slot in a module holds [base + RVA]; the
    bases differ across VMs, so identical code hashes differently. The
    Integrity-Checker reverses the relocation before hashing (Fig. 4).

    Algorithm 2 has no relocation table: it {e infers} address slots from
    where two copies of the section differ. The first differing byte of
    the two load bases tells it how far a detected difference sits inside a
    4-byte address ([offset]); it then backs up, extracts both candidate
    addresses, and if [addr1 - base1 = addr2 - base2] replaces both with
    that common RVA. Addresses and bases are little-endian byte sequences,
    as on x86.

    The heuristic is exact when bases are 64 KiB aligned (Windows default:
    the low two bytes of both bases are zero, so [base + RVA] never carries
    into a byte position before the bases' first differing byte). At page
    alignment carries can desynchronize the offset and leave addresses
    unadjusted — quantified by the alignment ablation experiment. *)

type stats = {
  adjusted : int;  (** Address pairs replaced by their common RVA. *)
  mismatched_candidates : int;
      (** Differences that did not decode to a common RVA (genuine content
          divergence, or heuristic failure). *)
}

val base_diff_offset : base1:int -> base2:int -> int option
(** [base_diff_offset ~base1 ~base2] is Algorithm 2 lines 1–9: the 1-based
    index of the first differing byte of the two little-endian base
    addresses, or [None] when the bases are equal (in which case no
    adjustment is needed — identical bases yield identical absolute
    addresses). *)

val adjust_pair : base1:int -> base2:int -> Bytes.t -> Bytes.t -> stats
(** [adjust_pair ~base1 ~base2 data1 data2] runs Algorithm 2 lines 10–24
    in place over the two section-data buffers (which must have equal
    length — Module-Parser guarantees it for same-named sections of equal
    VirtualSize; callers handle unequal sizes as an immediate mismatch). *)

val may_reconcile :
  base1:int ->
  base2:int ->
  len:int ->
  (int -> int) ->
  (int -> int) ->
  int ->
  bool
(** [may_reconcile ~base1 ~base2 ~len byte1 byte2 p] is a necessary
    condition for {!adjust_pair} to leave two [len]-byte buffers equal at
    [p], where [byte1 i] and [byte2 i] are their bytes and differ at [p].
    [false] means the adjustment leaves [p] differing, so the buffers
    cannot match after it; [true] decides nothing. A byte becomes equal
    only when a 4-byte window over it is rewritten, which needs the
    window's two addresses to lie exactly [base1 - base2] apart. Only the
    bytes at [p - 3 .. p + 3] are read, so a caller can answer for copies
    it has not fetched. *)

type canonical_stats = {
  slots_detected : int;  (** Candidate address slots examined. *)
  slots_unanimous : int;  (** Slots where every VM agreed on the RVA. *)
  slots_majority : int;
      (** Slots resolved by majority, with at least one deviating VM. *)
  deviants : (int * int list) list;
      (** Slot offset → indices of buffers whose RVA disagreed with the
          majority (prime suspects for patched pointers). *)
}

val canonicalize : bases:int array -> Bytes.t array -> canonical_stats
(** [canonicalize ~bases buffers] is the t-way generalization of
    Algorithm 2 (an extension beyond the paper): candidate address slots
    are inferred from positions where {e any} copy differs from the first,
    each VM's slot decodes to [addr - base], and the unanimous (or
    majority) RVA is written back into every agreeing buffer in place.
    Afterwards each buffer can be hashed {e once} and compared by digest,
    making a pool survey cost O(t) hashes instead of the O(t²) of pairwise
    comparison. Buffers must all have the same length (≥ 2 of them). *)

val adjust_with_relocs :
  base:int -> section_rva:int -> relocs:int list -> Bytes.t -> int
(** [adjust_with_relocs ~base ~section_rva ~relocs data] is the exact
    LKIM-flavoured adjustment: for every relocation slot RVA in [relocs]
    that falls inside this section, subtract [base] from the 4-byte slot.
    Returns the number of slots rewritten. Requires loader metadata the
    published ModChecker does not assume. *)

val reloc_margin : int
(** 3 — the widest reach of a 4-byte reloc slot past a window edge. A
    window of a section extended by [reloc_margin] bytes on each side
    (clamped to the section) contains every slot whose value overlaps
    the window, which makes {!adjust_window} exact. *)

val adjust_window :
  base:int ->
  section_rva:int ->
  window_off:int ->
  relocs:int list ->
  Bytes.t ->
  int
(** [adjust_window ~base ~section_rva ~window_off ~relocs w] adjusts a
    window of a section that starts [window_off] bytes into it. For the
    bytes the window shares with the full section, the result is
    byte-identical to running {!adjust_with_relocs} over the whole
    section — provided every slot overlapping those bytes lies fully
    inside the window (guaranteed when the window carries a
    {!reloc_margin} of context on each unclamped side). This is what
    lets the Merkle refresh re-adjust one page-leaf without the rest of
    the section in hand. *)
