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
  ?pool:Mc_parallel.Pool.t ->
  Bytes.t ->
  Mc_md5.Merkle.t
(** [merkle_of_bytes data] hashes every page-leaf and rolls up, metering
    the bytes hashed and interior nodes computed. With [?pool], buffers of
    at least 16 leaves fan the leaf hashing out across the pool's domains
    (each leaf is an independent span, so they parallelize cleanly) — only
    pass a pool from a caller thread, never from inside a pool task, or
    the nested dispatch can deadlock. *)

val merkle_of_leaves :
  ?meter:Mc_hypervisor.Meter.t ->
  length:int ->
  Mc_md5.Md5.digest array ->
  Mc_md5.Merkle.t
(** [merkle_of_leaves ~length leaves] rolls precomputed leaf digests up
    (metering only the interior nodes — the caller already metered the
    leaf hashing, possibly done in parallel). *)

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
    and its digest, reused only for a byte-equal buffer. Safe to share
    between pool domains. Create one per check and drop it with the
    check, so no state outlives the request. *)

val create_memo : unit -> memo

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
    present on one side only is an immediate mismatch.

    Byte-equal sides are hashed once, and with [?memo] a buffer equal to
    the last one hashed for its kind reuses that digest. The result is
    the same with or without [?memo]. Every side is still metered as
    bytes hashed, so meter counts do not depend on what was reused. *)
