(** A minimal JSON emitter and parser (no external dependency), for
    machine-readable reports consumed by ops pipelines. Both directions
    are load-bearing: the emitter writes reports, wire replies, ledger
    entries and telemetry exports, and the parser reads them back —
    [ledger verify] re-parses every chain entry, [Wire.reply_of_json]
    decodes replies and [Report.of_json] reloads saved reports.

    There is one emitter: {!to_buffer}, {!to_string} and
    {!to_string_pretty} walk the tree with the same code and differ only
    in layout. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends the compact form of [v] to [buf] — exactly
    the bytes of [to_string v], whatever [buf] already holds. Lets a
    caller serialise into one buffer it reuses (clearing it between
    values) instead of a fresh string per value. *)

val to_string : t -> string
(** [to_string v] is compact single-line JSON. Strings are escaped per RFC
    8259 (quotes, backslashes, control characters); non-finite floats emit
    as [null]. *)

val to_string_pretty : t -> string
(** [to_string_pretty v] is the two-space-indented rendering. *)

val of_string : string -> (t, string) result
(** [of_string s] parses one JSON document (plus surrounding whitespace).
    Numbers without a fractional part become [Int], others [Float];
    [\u] escapes beyond Latin-1 are rejected (the emitter never produces
    them). *)
