module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Costs = Mc_hypervisor.Costs

type t = {
  host_id : int;
  host_name : string;
  region : int;
  rack : int;
  patch_level : int;
  latency_factor : float;
  clock_skew_s : float;
  cloud : Cloud.t;
  meter : Meter.t;
  mutable up : bool;
  mutable incremental : Modchecker.Orchestrator.incremental option;
}

let create ~host_id ~region ~rack ?(patch_level = 1) ?(latency_factor = 1.0)
    ?(clock_skew_s = 0.0) ?(vms = 5) ?(cores = 8) ?(seed = 2012L) ?fault_spec
    () =
  let cloud =
    Cloud.create ~vms ~cores ~seed ~patch_levels:[ patch_level ] ?fault_spec ()
  in
  {
    host_id;
    host_name = Printf.sprintf "host%d" host_id;
    region;
    rack;
    patch_level;
    latency_factor;
    clock_skew_s;
    cloud;
    meter = Meter.create ();
    up = true;
    incremental = None;
  }

let incremental t =
  match t.incremental with
  | Some inc -> inc
  | None ->
      let inc = Modchecker.Orchestrator.create_incremental () in
      t.incremental <- Some inc;
      inc

let set_up t up = t.up <- up

let clock_s costs t =
  t.clock_skew_s +. (Meter.total_cpu_seconds costs t.meter *. t.latency_factor)

let describe t =
  Printf.sprintf "%s (region %d, rack %d, level %d%s)" t.host_name t.region
    t.rack t.patch_level
    (if t.up then "" else ", DOWN")
