(** Append-only, hash-chained attestation ledger for engine verdicts.

    Every response the serving layer emits is condensed into one ledger
    {!entry} — request key, verdict, vote counts, the module's Merkle
    anchor root, the metered work, and the MD5 of the reply's attested
    bytes (the wire reply without its wall-clock timing fields) —
    and chained to its predecessor by an MD5 over the previous entry's
    hash plus this entry's canonical JSON. The serialized chain (one
    compact JSON object per line) is the audit artifact: {!verify} walks
    it offline, recomputing every link, so an auditor who holds only the
    file (plus, optionally, the expected head hash) detects any
    tampering with a historical verdict — a flipped byte, a dropped or
    reordered entry, a truncated tail — and names the first bad entry.
    Dom0 produced the chain, but Dom0 cannot rewrite it unnoticed: that
    is the SEVurity lesson the design answers.

    Entries are deliberately small (the full reply body is tied in by
    digest, not embedded), so a million-request replay ledgers in tens
    of megabytes; a custom [sink] streams lines to disk instead of
    buffering them. *)

type entry = {
  en_seq : int;  (** 0-based position in the chain. *)
  en_key : string;  (** Request key, e.g. ["check:0:hal.dll"]. *)
  en_verdict : string;
      (** ["intact"], ["infected"], ["degraded"], or ["error"]. *)
  en_surveyed : int;  (** VMs asked (0 when not applicable). *)
  en_responded : int;  (** VMs that answered — the quorum evidence. *)
  en_root : string option;
      (** The checked module's Merkle anchor root (hex) when the engine
          had one cached — the value an external verifier compares
          against an out-of-band golden root. *)
  en_meter : (string * int) list;
      (** Non-zero metered operation counts (["phase.counter"] keys). *)
  en_body_md5 : string;
      (** Hex MD5 of the [body] passed to {!append}. [Serve] passes a
          reply's attested bytes: the compact [modchecker/wire@2] line
          with its trailing [wait_s] and [service_s] fields cut back to
          the closing brace ([Wire.attested_json]), so two
          runs of one deterministic request stream write the same
          entries. *)
  en_prev : string;  (** Hex chain hash of the previous entry. *)
  en_hash : string;
      (** Hex MD5 of [en_prev ^ payload JSON] — the next entry's
          [en_prev]. *)
}

val schema : string
(** ["modchecker/ledger@1"] — tagged on every serialized entry. *)

val genesis : string
(** The [en_prev] of entry 0: the hex MD5 of the schema tag, so chains
    from different schema versions can never splice. *)

type t

val create : ?sink:(string -> unit) -> unit -> t
(** [create ()] starts an empty chain buffered in memory ({!contents}
    retrieves it). With [sink], every appended line (newline-terminated)
    is passed to [sink] instead of being retained — the million-entry
    mode. *)

val append :
  t ->
  key:string ->
  verdict:string ->
  surveyed:int ->
  responded:int ->
  ?root:string ->
  meter:(string * int) list ->
  body:string ->
  unit ->
  entry
(** [append t ~key ~verdict ~surveyed ~responded ?root ~meter ~body ()]
    seals the next entry over the running chain hash ([body] is the
    attested reply JSON; only its MD5 is stored) and emits its
    serialized line. *)

val length : t -> int

val head : t -> string
(** The chain hash of the last entry ({!genesis} when empty) — what an
    auditor pins externally to also detect truncation. *)

val contents : t -> string
(** The serialized chain so far. Raises [Invalid_argument] when the
    ledger was created with a custom [sink] (the lines are wherever the
    sink put them). *)

val entry_to_json : entry -> Mc_util.Json.t

val entry_of_json : Mc_util.Json.t -> (entry, string) result

val entry_line : entry -> string
(** The canonical serialized form — compact JSON, what {!append} emits
    and {!verify} expects one-per-line. *)

type error = {
  ve_index : int;  (** 0-based line index of the first bad entry. *)
  ve_reason : string;
}

type summary = {
  sum_entries : int;
  sum_head : string;  (** Chain hash of the last verified entry. *)
  sum_verdicts : (string * int) list;
      (** Verdict → occurrence count, sorted by verdict. *)
  sum_roots : (string * string) list;
      (** Request key → last anchored root, sorted by key — the values
          to compare against out-of-band golden roots. *)
  sum_root_changes : int;
      (** Entries whose root differs from the previous entry for the
          same key. Benign guest writes move roots; a nonzero count on a
          supposedly idle fleet is a flag worth pulling. *)
}

val verify_lines : ?expect_head:string -> string Seq.t -> (summary, error) result
(** [verify_lines lines] walks serialized entries in order, re-deriving
    every chain hash from {!genesis}: a parse failure, schema mismatch,
    sequence gap, broken [en_prev] link, or hash mismatch stops at the
    first bad entry. With [expect_head], a chain that verifies but ends
    on a different head (e.g. truncated) fails with [ve_index] = entry
    count. Streaming — constant memory in the chain length. *)

val verify : ?expect_head:string -> string -> (summary, error) result
(** {!verify_lines} over the non-empty lines of a serialized chain. *)

val verify_file : ?expect_head:string -> string -> (summary, error) result
(** {!verify_lines} over a file's lines, without loading the file. *)
