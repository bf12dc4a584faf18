(** A write-once result cell, filled by a pool worker and awaited by the
    caller. Each cell has exactly one filler. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> ('a, exn) result -> unit
(** [fill t r] stores the outcome and wakes waiters. Filling twice raises
    [Invalid_argument]. *)

val fill_error : 'a t -> exn -> Printexc.raw_backtrace -> unit
(** [fill_error t e bt] is [fill t (Error e)] except the capture-site
    backtrace travels with the exception, so {!await} re-raises it as if
    the failure happened in the awaiting domain with the worker's trace
    intact. *)

val await : 'a t -> 'a
(** [await t] blocks until filled, then returns the value or re-raises the
    stored exception (with the original backtrace when it was recorded via
    {!fill_error}). *)

val is_filled : 'a t -> bool
