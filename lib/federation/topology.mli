(** The fleet's shape: hosts packed into racks packed into regions.

    Hosts are numbered globally ([0 .. host_count - 1]), racks globally
    too; host [i] lives in rack [i / hosts_per_rack]. Patch levels are
    cycled across hosts from [patch_levels] — host 0 gets the first
    level, host 1 the next — so any mix of kernel builds can be laid out
    deterministically. A slow rack gives all its hosts a latency factor
    > 1, which the coordinator folds into each host's virtual response
    time. *)

type spec = {
  regions : int;
  racks_per_region : int;
  hosts_per_rack : int;
  vms_per_host : int;
  cores_per_host : int;
  patch_levels : int list;
      (** Cycled across hosts; [[]] means every host at level 1. *)
  slow_racks : (int * float) list;
      (** Global rack index → latency factor for its hosts. *)
  seed : int64;
      (** Fleet seed; host [i] boots its pool from a seed derived from
          it (host 0 gets the fleet seed itself). *)
  fault_spec : Mc_memsim.Faultplan.spec option;
      (** Armed on every VM of every host, salted per dom as usual. *)
}

val default_spec : spec
(** 1 region × 1 rack × 3 hosts × 5 VMs, homogeneous, no faults. *)

type t = { spec : spec; hosts : Host.t array }

val create : ?spec:spec -> unit -> t
(** Boot every host's pool. Raises [Invalid_argument] on an empty
    topology. *)

val host : t -> int -> Host.t
(** Raises [Invalid_argument] when out of range. *)

val hosts : t -> Host.t list

val host_count : t -> int

val vm_count : t -> int
(** Total VMs across all hosts. *)

val set_host_down : t -> int -> unit
(** Whole-host outage: the coordinator will count it unreachable. *)

val set_host_up : t -> int -> unit

val hosts_in_rack : t -> int -> Host.t list

val distinct_levels : t -> int list
(** Sorted patch levels present across hosts. *)
