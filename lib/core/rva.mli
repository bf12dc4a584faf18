(** Relative-virtual-address adjustment: the paper's Algorithm 2, and
    the one reloc-canonical form every cached print is hashed from.

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
    unadjusted — quantified by the alignment ablation experiment.

    A copy can also be stripped on its own, with no peer: {!canonical}
    rewrites every slot of a validated {!slots} table to [u32 - base].
    That is the only per-copy form. Cold checks use it to decide clean
    pairs without the scan, and Merkle prints, their leaf refreshes,
    federation fingerprints and the X1 exact column hash it. The table
    comes from the golden image's relocations, so it needs loader
    metadata the published ModChecker does not assume; a section whose
    RVA or length is not the table's is hashed raw. *)

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

(** {1 Reloc-canonical copies}

    A shortcut that proves {!adjust_pair}'s result for a clean pair
    without running its byte scan.

    Let [S] be a set of 4-byte slot offsets into an [n]-byte section,
    sorted, each in [0, n-4], no two overlapping, and let [canon_S x base]
    be [x] with every slot rewritten to [(u32 - base) land 0xFFFFFFFF].
    Take two [n]-byte buffers [d1], [d2] whose bases differ
    ([base_diff_offset ~base1 ~base2 = Some offset]). If
    [canon_S d1 base1] and [canon_S d2 base2] are byte-equal, then
    [adjust_pair ~base1 ~base2 d1 d2] leaves both buffers equal to that
    canonical copy and reports [adjusted = |S|] (and no mismatched
    candidate).

    Proof. Outside the slots the raw bytes are equal, since
    canonicalization leaves them as they are. In a slot both raw words
    are [r + base1] and [r + base2] (mod 2{^32}) for the one [r] both
    canonicalize to; the low
    [offset - 1] bytes of the bases agree, so the low [offset - 1] bytes
    of the two words and the carries into byte [offset - 1] agree, and
    byte [offset - 1] differs because the bases' bytes there do. The
    scan therefore reaches each slot through equal bytes, first differs
    at [slot + offset - 1], backs up exactly to the slot, finds equal
    RVAs ([r]), rewrites both words to [r] and resumes at [slot + 4],
    at or before the next slot.

    The proof does not depend on where [S] came from, so a wrong or
    hostile slot table only changes how often the shortcut applies,
    never its result. *)

type slots
(** A validated slot table for one section: the proof's [S], plus the
    section RVA and length it was validated against. *)

val slots_of_relocs : section_rva:int -> len:int -> int list -> slots
(** [slots_of_relocs ~section_rva ~len relocs] keeps the reloc RVAs that
    fall, as whole 4-byte slots, inside the [len]-byte section at
    [section_rva]; sorts and deduplicates them; and drops every slot that
    starts inside the previous slot kept. Any input list yields a table
    the proof covers. *)

val slot_offsets : slots -> int list
(** The kept slot offsets, ascending. *)

val slot_count : slots -> int

val slots_fit : slots -> section_rva:int -> len:int -> bool
(** Whether the table was validated for this section RVA and length. *)

val same_slots : slots -> slots -> bool
(** Equal slot sets over equal section lengths. *)

val canonical : slots:slots -> base:int -> ?off:int -> Bytes.t -> unit
(** [canonical ~slots ~base ~off w] rewrites in place every slot of the
    table that lies wholly inside [w] to [(u32 - base) land 0xFFFFFFFF],
    where [w] holds the section's bytes from offset [off] (default 0) on;
    the first such slot is found by binary search. Over the whole section
    this is the proof's [canon_S]. A window extended by {!reloc_margin}
    bytes past each edge (clamped to the section) is rewritten exactly
    like the whole section on the bytes of the unextended window. Raises
    [Invalid_argument] when the window reaches outside the table's
    section. *)

val uncanonical : slots:slots -> base:int -> Bytes.t -> unit
(** [uncanonical ~slots ~base d] rewrites in place every slot of the
    table to [(u32 + base) land 0xFFFFFFFF], where [d] holds the whole
    section. Because the slots do not overlap, each is rewritten on its
    own and this exactly undoes [canonical ~slots ~base]: the raw bytes
    come back from a canonical copy. Raises [Invalid_argument] when [d]
    is longer than the table's section. *)

val slot_covering : slots -> int -> int option
(** [slot_covering t q] is the offset of the slot that contains section
    offset [q], if any. *)

val reloc_margin : int
(** 3: the widest reach of a 4-byte slot past a window edge. A window
    extended by [reloc_margin] bytes on each side (clamped to the
    section) holds every slot that overlaps the unextended window. *)

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
