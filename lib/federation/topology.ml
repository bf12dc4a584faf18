type spec = {
  regions : int;
  racks_per_region : int;
  hosts_per_rack : int;
  vms_per_host : int;
  cores_per_host : int;
  patch_levels : int list;
  slow_racks : (int * float) list;
  seed : int64;
  fault_spec : Mc_memsim.Faultplan.spec option;
}

let default_spec =
  {
    regions = 1;
    racks_per_region = 1;
    hosts_per_rack = 3;
    vms_per_host = 5;
    cores_per_host = 8;
    patch_levels = [];
    slow_racks = [];
    seed = 2012L;
    fault_spec = None;
  }

type t = { spec : spec; hosts : Host.t array }

(* Host 0 gets the fleet seed itself, so a 1-host fleet boots the exact
   cloud a standalone run with that seed would — the parity tests depend
   on it. *)
let host_seed fleet_seed id =
  Int64.add fleet_seed (Int64.mul (Int64.of_int id) 0x1000193L)

let create ?(spec = default_spec) () =
  if spec.regions < 1 || spec.racks_per_region < 1 || spec.hosts_per_rack < 1
  then invalid_arg "Topology.create: empty topology";
  let n = spec.regions * spec.racks_per_region * spec.hosts_per_rack in
  let level_of =
    match spec.patch_levels with
    | [] -> fun _ -> 1
    | l ->
        let a = Array.of_list l in
        fun id -> a.(id mod Array.length a)
  in
  let hosts =
    Array.init n (fun id ->
        let rack = id / spec.hosts_per_rack in
        let region = rack / spec.racks_per_region in
        let latency_factor =
          Option.value ~default:1.0 (List.assoc_opt rack spec.slow_racks)
        in
        (* A small deterministic per-host skew: real fleets never agree
           on the time, and nothing in the verdict path may depend on
           cross-host clock comparison. *)
        let clock_skew_s = float_of_int (id mod 5) *. 0.02 in
        Host.create ~host_id:id ~region ~rack ~patch_level:(level_of id)
          ~latency_factor ~clock_skew_s ~vms:spec.vms_per_host
          ~cores:spec.cores_per_host
          ~seed:(host_seed spec.seed id)
          ?fault_spec:spec.fault_spec ())
  in
  { spec; hosts }

let host t i =
  if i < 0 || i >= Array.length t.hosts then
    invalid_arg (Printf.sprintf "Topology.host: no host index %d" i);
  t.hosts.(i)

let hosts t = Array.to_list t.hosts

let host_count t = Array.length t.hosts

let vm_count t =
  Array.fold_left
    (fun n (h : Host.t) -> n + Mc_hypervisor.Cloud.vm_count h.Host.cloud)
    0 t.hosts

let set_host_down t i = Host.set_up (host t i) false

let set_host_up t i = Host.set_up (host t i) true

let hosts_in_rack t rack =
  List.filter (fun (h : Host.t) -> h.Host.rack = rack) (hosts t)

let distinct_levels t =
  List.sort_uniq compare
    (List.map (fun (h : Host.t) -> h.Host.patch_level) (hosts t))
