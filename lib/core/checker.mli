(** Integrity-Checker (§III-B.3, §IV-C): hashes artifacts with MD5 and
    compares a module across a VM pair, adjusting RVAs in section data
    before hashing. *)

type artifact_verdict = {
  av_kind : Artifact.kind;
  av_match : bool;
  av_digest1 : string;  (** Hex MD5 on the first VM (after adjustment). *)
  av_digest2 : string;
  av_adjusted : int;  (** Addresses rewritten to RVAs in this artifact. *)
}

type pair_result = {
  verdicts : artifact_verdict list;
  all_match : bool;
  total_adjusted : int;
}

val hash_artifact : ?meter:Mc_hypervisor.Meter.t -> Artifact.t -> string
(** [hash_artifact a] is the hex MD5 of the artifact's bytes (metered as
    bytes hashed). Section data is hashed as-is — use [compare_pair] for
    cross-VM comparison, which adjusts first. *)

(** {1 Merkle fingerprints}

    The O(dirty) alternative to flat digests: a section is hashed as
    per-page leaves rolled into a root ({!Mc_md5.Merkle}). Root equality
    substitutes for digest equality, a k-page refresh re-hashes only k
    leaves plus O(log n) interior nodes, and root {e inequality} can be
    descended to the deviant pages before any byte-level survey. Interior
    digests land on the meter's [merkle_nodes] counter so the timing model
    prices them. *)

val merkle_of_bytes :
  ?meter:Mc_hypervisor.Meter.t ->
  Bytes.t ->
  Mc_md5.Merkle.t
(** [merkle_of_bytes data] hashes every page-leaf and rolls up, metering
    the bytes hashed and interior nodes computed. The leaves are hashed
    on the calling domain. *)

val merkle_of_leaves :
  ?meter:Mc_hypervisor.Meter.t ->
  length:int ->
  Mc_md5.Md5.digest array ->
  Mc_md5.Merkle.t
(** [merkle_of_leaves ~length leaves] rolls precomputed leaf digests up
    (metering only the interior nodes — the caller already metered the
    leaf hashing). *)

val merkle_rehash :
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_md5.Merkle.t ->
  Bytes.t ->
  dirty:int list ->
  Mc_md5.Merkle.t
(** [merkle_rehash t data ~dirty] is the k-dirty-page refresh: re-hashes
    only the named leaves from [data] and the interior nodes on their
    root paths, metering exactly those bytes and nodes. *)

val deviant_ranges :
  ?meter:Mc_hypervisor.Meter.t ->
  Mc_md5.Merkle.t ->
  Mc_md5.Merkle.t ->
  (int * int) list
(** [deviant_ranges t1 t2] descends the two trees and returns the
    (offset, length) spans of the leaves where the underlying buffers
    disagree — empty iff the roots match. Node comparisons are metered as
    [merkle_nodes] and each call bumps the [merkle.descents] telemetry
    counter. Raises [Invalid_argument] on shape mismatch (use the
    byte-level survey instead when sections differ in size). *)

type memo
(** A per-check digest memo: the last buffer hashed for each artifact kind
    and its digest, reused only for a byte-equal buffer. A memo lives
    inside one request, which runs on one domain: create one per check
    and drop it with the check, so no state outlives the request. *)

val create_memo : unit -> memo

(** {1 Pair comparison} *)

type slot_tables = Artifact.t -> Rva.slots option
(** Where a section's reloc slots are believed to lie (the orchestrator
    answers from the golden image's reloc table). The answer affects how
    often the canonical shortcut applies, never a verdict. *)

type side
(** One copy of a module readied for comparison: its load base and its
    artifacts, each section datum a slot table fits held in
    reloc-canonical form ({!Rva.canonical}). Immutable once made, so one
    side may take part in many pairs. *)

val section_slots : slot_tables -> Artifact.t -> Rva.slots option
(** [section_slots slots a] is the table [slots] gives for section datum
    [a] when it is validated for [a]'s RVA and length ({!Rva.slots_fit}),
    else [None]. *)

val own : ?slots:slot_tables -> base:int -> Artifact.t list -> side
(** [own ?slots ~base arts] takes ownership of [arts]: every section
    datum {!section_slots} fits is canonicalized in place
    ({!Rva.canonical}), with no copy, and every other artifact (headers,
    forged section headers, resized sections) is kept raw. This is the
    one rule by which every per-copy print, fingerprint and shortcut
    strips load bases. The caller must neither read nor write the
    artifacts' bytes again except through {!side_artifacts}. The raw bytes stay recoverable exactly ({!Rva.uncanonical}),
    which {!compare_sides} does only on the paths that copy anyway.
    Without [?slots] nothing is rewritten. Give it a copy nobody else
    holds, such as a fresh {!Parser.artifacts} result. *)

val prepare : ?slots:slot_tables -> base:int -> Artifact.t list -> side
(** [prepare ?slots ~base arts] is {!own} over a copy of [arts] (over
    [arts] itself without [?slots], as nothing is rewritten then), so the
    caller's artifacts are left as they are. *)

val side_artifacts : side -> (Artifact.t * Rva.slots option) list
(** Each artifact of the side with the table its data was canonicalized
    with: under [Some t] the data is [canonical ~slots:t ~base raw], under
    [None] it is the raw bytes. *)

val find_kind :
  (Artifact.t * Rva.slots option) list ->
  Artifact.kind ->
  (Artifact.t * Rva.slots option) option
(** [find_kind arts kind] is the first of a side's artifacts
    ({!side_artifacts}) of kind [kind]. *)

val compare_sides :
  ?meter:Mc_hypervisor.Meter.t -> ?memo:memo -> side -> side -> pair_result * int
(** [compare_sides s1 s2] is {!compare_pair} over two sides' raw
    artifacts, plus the number of artifacts the canonical shortcut
    decided. A section datum whose two sides carry the same slot table,
    whose bases differ, and whose canonical forms are byte-equal is
    decided from the canonical form: by {!Rva}'s canonical-copy rule,
    those bytes and a count of the table's slots are exactly what
    Algorithm 2 would produce, so the digest and [av_adjusted] equal the
    scan's. Every other artifact takes the exact path of {!compare_pair}
    on the raw bytes, recovered into a fresh copy where a side holds them
    canonical. Neither side is written. Meter charges are the same on
    both paths. *)

val compare_pair :
  ?meter:Mc_hypervisor.Meter.t ->
  ?memo:memo ->
  base1:int ->
  Artifact.t list ->
  base2:int ->
  Artifact.t list ->
  pair_result
(** [compare_pair ~base1 arts1 ~base2 arts2] matches artifacts by kind.
    Section data of equal length is copied and RVA-adjusted pairwise
    (Algorithm 2) before hashing. Headers, and section data of different
    lengths, are hashed as-is, so a resize always mismatches. An artifact
    present on one side only is an immediate mismatch. Sections of equal
    length are metered as bytes scanned on both sides.

    Byte-equal sides are hashed once, and with [?memo] a buffer equal to
    the last one hashed for its kind reuses that digest. The result is
    the same with or without [?memo], and equals {!compare_sides}'s over
    sides prepared with any slot tables. Every side is still metered as
    bytes hashed, so meter counts do not depend on what was reused. *)
