(** A fixed pool of OCaml 5 domains with a shared task queue.

    No request path maps over it: a check, survey or federation sweep
    visits its VMs and hosts one after another on the calling domain,
    and the engine's shards each own one domain. The paper's "parallel
    access" extension is priced in the schedule model instead
    ([Mc_hypervisor.Sched.run_jobs]). A task is the only unit of
    parallelism and always runs to completion: nothing cancels or
    abandons it. *)

type t

val create : int -> t
(** [create n] spawns [n] worker domains. [n] must be positive. *)

val size : t -> int

val run : t -> (unit -> 'a) -> 'a Deferred.t
(** [run t task] schedules [task] and returns a handle to await. On a
    pool that is shut down (or shuts down concurrently), the handle is
    filled with [Invalid_argument] — awaiting it fails fast, it can
    never hang on a task no worker will run. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map t f xs] applies [f] to every element on the pool,
    preserving order. An exception raised by any [f x] is re-raised in the
    caller (after all tasks settle). Safe to call from one caller at a
    time per pool. *)

val shutdown : t -> unit
(** [shutdown t] closes the task channel and joins all workers (queued
    tasks are drained first); the pool is unusable afterwards.
    Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool, always shutting it down. *)
