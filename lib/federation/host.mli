(** One physical host of the federation: its own VM pool (a {!Cloud}),
    its own clock and its own fault domain. The coordinator drives it
    with direct orchestrator calls; it starts no domains of its own.

    The host is the unit of failure and of placement: it lives in a rack
    within a region, every one of its VMs runs the same patch level (a
    fleet mixes levels {e across} hosts), and when it is marked down the
    coordinator can reach none of its VMs. Its clock is the metered
    virtual time of the work it performed, scaled by its rack's latency
    factor and offset by a fixed skew — no host ever reads another
    host's clock. *)

type t = {
  host_id : int;
  host_name : string;  (** ["host3"] *)
  region : int;
  rack : int;  (** Global rack index. *)
  patch_level : int;  (** Module build every VM of this host runs. *)
  latency_factor : float;
      (** Response-time multiplier (1.0 = nominal; a slow rack > 1). *)
  clock_skew_s : float;  (** Fixed offset of this host's clock. *)
  cloud : Mc_hypervisor.Cloud.t;
  meter : Mc_hypervisor.Meter.t;
      (** Everything ever metered on this host — the host's clock
          source. *)
  mutable up : bool;
  mutable incremental : Modchecker.Orchestrator.incremental option;
      (** Host-local carry-over state; per host because digest-cache keys
          are VM indices, which repeat across hosts. *)
}

val create :
  host_id:int ->
  region:int ->
  rack:int ->
  ?patch_level:int ->
  ?latency_factor:float ->
  ?clock_skew_s:float ->
  ?vms:int ->
  ?cores:int ->
  ?seed:int64 ->
  ?fault_spec:Mc_memsim.Faultplan.spec ->
  unit ->
  t
(** [create ~host_id ~region ~rack ()] boots the host's pool: [vms]
    DomUs (default 5) at [patch_level] (default 1), seeded by [seed] so
    distinct hosts randomize module bases differently. *)

val incremental : t -> Modchecker.Orchestrator.incremental
(** The host's own incremental state, created on first use. *)

val set_up : t -> bool -> unit
(** Mark the host reachable/unreachable (a whole-host outage). *)

val clock_s : Mc_hypervisor.Costs.t -> t -> float
(** The host's local clock: skew + priced meter × latency factor. *)

val describe : t -> string
(** ["host3 (region 0, rack 1, level 2)"], with [", DOWN"] appended when
    unreachable. *)
