(** The engine's wire protocol: typed request/response frames with one
    versioned JSON codec.

    Requests travel as text lines ([kind vm module \[priority\]], the
    batch-file format [serve] always accepted); {!parse_line} is the one
    parser — batch mode, streaming mode, and the tests all share it, so
    the dialects can never drift. Responses travel as single-line JSON
    objects tagged with {!schema}; {!reply_to_json}/{!reply_of_json}
    round-trip every reply shape. The ledger attests a response's bytes
    without its wall-clock [wait_s]/[service_s] ({!attested_json}), so
    two runs of one request stream attest the same bytes. Admission
    control is part of the protocol: a full queue answers [Busy] (with a
    retry-after hint), a stopping engine answers [Draining], and an
    unparseable line answers [Invalid] — the connection never just drops
    a request. *)

type frame = {
  f_priority : Engine_core.priority;
  f_request : Engine_core.request;
}
(** One parsed request line: what to do and how urgently. *)

val parse_line : string -> (frame, string) result
(** [parse_line line] parses one whitespace-separated request line:
    [check VM MODULE \[PRIORITY\]], [survey - MODULE \[PRIORITY\]], or
    [lists \[- \[- \[PRIORITY\]\]\]], with ["-"] for unused fields and
    the priority defaulting to [normal]. This is the single parser
    behind batch files and the stream protocol. Errors name the
    offending field. *)

val line_of_frame : frame -> string
(** Canonical text form, explicit priority; [parse_line] inverts it. *)

val frame_key : frame -> string
(** The frame's request key ({!Engine_core.request_key}). *)

val schema : string
(** ["modchecker/wire@2"] — tagged on every serialized reply. A
    response ends with its [wait_s] and [service_s] fields, and its body
    is a [modchecker/report@2], [modchecker/survey@1] or
    [modchecker/lists@1] document, or [{"error": ...}]. *)

type body =
  | Report_body of Modchecker.Report.module_report
      (** A check's verdict. *)
  | Survey_body of Modchecker.Report.survey
  | Lists_body of Modchecker.Orchestrator.list_comparison
  | Error_body of string
      (** The request ran and failed (module absent on target, target
          unreachable...) — a protocol-level answer, not a crash. *)

type resp = {
  rs_seq : int;  (** The request's 0-based sequence number. *)
  rs_frame : frame;  (** The request being answered. *)
  rs_shard : int;
  rs_wait_s : float;
  rs_service_s : float;
  rs_meter : (string * int) list;
      (** Non-zero metered counts, ["phase.counter"] keys. *)
  rs_root : string option;
      (** The module's Merkle anchor root, when the engine had one. *)
  rs_body : body;
}

type reply =
  | Resp of resp
  | Busy of { b_seq : int; b_retry_after_s : float; b_queue_bound : int }
      (** Admission refused ([Queue_full]); resubmit after the hint. *)
  | Draining of { d_seq : int }
      (** The engine is shutting down; the request was not admitted. *)
  | Invalid of { i_seq : int; i_error : string }
      (** The line did not parse; [i_error] is {!parse_line}'s message. *)

val meter_pairs : Mc_hypervisor.Meter.t -> (string * int) list
(** The meter's non-zero counts as ["phase.counter"] pairs — the form
    [rs_meter] and the ledger carry. *)

val resp_of_response :
  seq:int -> ?root:string -> frame -> Engine_core.response -> resp
(** Package an engine response as a wire response. *)

val verdict_key : resp -> string
(** ["intact"], ["infected"], ["degraded"], or ["error"] — the response
    body's verdict, with a lists body judged like its exit code (any
    unreachable VM degrades, else any discrepancy infects). *)

val vote_counts : resp -> int * int
(** [(surveyed, responded)] — the quorum evidence behind the verdict
    ([0, 0] for a lists body, whose walk has no fixed electorate). *)

val exit_code : reply -> Modchecker.Exit_code.t
(** The reply's contribution to a batch exit code: a response maps
    through {!Modchecker.Exit_code}; [Busy] is advisory (the request is
    retried, its eventual response counts) so it contributes [ok];
    [Draining] and [Invalid] are unanswered requests — [error]. *)

val reply_to_json : reply -> Mc_util.Json.t
(** The versioned single-object form shared by [serve --requests] and
    [serve --stream]. Round-trips through {!reply_of_json}. *)

val attested_json : reply -> Mc_util.Json.t
(** {!reply_to_json} without a response's two last fields, [wait_s] and
    [service_s]: the part of a reply that depends only on the request
    stream and the pool, which a ledger entry's [body_md5] attests. The
    same as {!reply_to_json} for [Busy], [Draining] and [Invalid]. *)

val add_timing : Buffer.t -> reply -> unit
(** [add_timing buf reply], where [buf] ends with the compact bytes of
    [attested_json reply], replaces their closing brace with the timing
    fields, so that [buf] ends with the compact bytes of
    [reply_to_json reply]. A no-op unless [reply] is a [Resp]. *)

val reply_of_json : Mc_util.Json.t -> (reply, string) result
(** Parse {!reply_to_json}'s output back. Errors on a missing or
    different [schema] tag and on any missing or mistyped field. *)

val lists_to_json : Modchecker.Orchestrator.list_comparison -> Mc_util.Json.t
(** The lists-body payload codec (also used standalone by the CLI's
    lists rendering). Round-trips through {!lists_of_json}. *)

val lists_of_json :
  Mc_util.Json.t -> (Modchecker.Orchestrator.list_comparison, string) result
