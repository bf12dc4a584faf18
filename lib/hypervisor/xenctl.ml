module Phys = Mc_memsim.Phys
module Faultplan = Mc_memsim.Faultplan
module Kernel = Mc_winkernel.Kernel

exception Map_fault of { mf_pfn : int; mf_kind : Faultplan.kind }

exception Pause_fault of { pf_dom : int }

let get_vcpu_cr3 dom = Kernel.cr3 (Dom.kernel_exn dom)

let check_pause (dom : Dom.t) =
  match dom.faults with
  | Some plan when Faultplan.pause_fails plan ->
      raise (Pause_fault { pf_dom = dom.dom_id })
  | _ -> ()

let pause (dom : Dom.t) =
  check_pause dom;
  dom.paused <- true

let resume (dom : Dom.t) =
  check_pause dom;
  dom.paused <- false

let bump meter f = match meter with Some m -> f m | None -> ()

let phys dom = Kernel.phys (Dom.kernel_exn dom)

let map_foreign_page ?meter ?(attempt = 1) (dom : Dom.t) pfn =
  (* A failed attempt still costs a page map: Dom0 issued the hypercall
     and only then learned the mapping did not stick. *)
  bump meter (fun m -> Meter.add_pages_mapped m 1);
  (match dom.faults with
  | Some plan -> (
      match Faultplan.map_outcome plan ~pfn ~attempt with
      | Some kind -> raise (Map_fault { mf_pfn = pfn; mf_kind = kind })
      | None -> ())
  | None -> ());
  (* Foreign mappings go through the guest's shim, if an adversary
     installed one — this is the page-granular channel every checker
     read uses, and exactly what a SEVurity-style attacker intercepts.
     [read_foreign_pa] below stays raw: it models the hypervisor's own
     debug read path, which in-guest tampering cannot reach. *)
  Phys.read_page_foreign (phys dom) pfn

let read_foreign_pa ?meter dom paddr dst off len =
  (* A zero-length read maps nothing and copies nothing. Without the
     guard, [last] computes to the page *before* [first] and the meter
     would be charged a bogus (first > last: negative) page count. *)
  if len > 0 then begin
    let page = Phys.frame_size in
    let first = paddr / page and last = (paddr + len - 1) / page in
    bump meter (fun m ->
        Meter.add_pages_mapped m (last - first + 1);
        Meter.add_bytes_copied m len);
    Phys.read (phys dom) paddr dst off len
  end

(* --- log-dirty (XEN_DOMCTL_SHADOW_OP_* analogues) ---------------------- *)

let enable_log_dirty ?meter dom =
  bump meter (fun m -> Meter.add_hypercalls m 1);
  Phys.set_log_dirty (phys dom) true

let disable_log_dirty ?meter dom =
  bump meter (fun m -> Meter.add_hypercalls m 1);
  Phys.set_log_dirty (phys dom) false

let peek_dirty ?meter dom =
  bump meter (fun m -> Meter.add_hypercalls m 1);
  Phys.peek_dirty (phys dom)

let clean_dirty ?meter dom =
  bump meter (fun m -> Meter.add_hypercalls m 1);
  Phys.clean_dirty (phys dom)

(* --- write traps (vm_event / monitor-op analogues) --------------------- *)

(* Like the log-dirty domctls, watch management is Dom0 control-plane
   traffic and is not subject to the domain's fault plan. *)

let watch_pages ?meter dom pfns =
  bump meter (fun m ->
      Meter.add_hypercalls m 1;
      Meter.add_watch_arms m (List.length pfns));
  Phys.watch_frames (phys dom) pfns

let unwatch_pages ?meter dom pfns =
  bump meter (fun m ->
      Meter.add_hypercalls m 1;
      Meter.add_watch_arms m (List.length pfns));
  Phys.unwatch_frames (phys dom) pfns

let watched_pfns dom = Phys.watched_frames (phys dom)

let pending_trap_events dom = Phys.pending_watch_events (phys dom)

let drain_events ?meter dom =
  match Phys.drain_watch_events (phys dom) with
  | [] -> []  (* delivery is push: an empty ring costs Dom0 nothing *)
  | evs ->
      bump meter (fun m ->
          Meter.add_hypercalls m 1;
          Meter.add_trap_events m (List.length evs));
      evs

let set_trap_clock dom now = Phys.set_watch_clock (phys dom) now

let memory_epoch dom = Phys.uid (phys dom)

let page_version dom pfn = Phys.page_version (phys dom) pfn

let stale_pfns ?meter dom footprint =
  bump meter (fun m ->
      Meter.add_hypercalls m 1;
      Meter.add_pfns_checked m (Array.length footprint));
  let p = phys dom in
  Array.fold_right
    (fun (pfn, v) acc -> if Phys.page_version p pfn = v then acc else pfn :: acc)
    footprint []

let foreign_shim_installed dom = Phys.foreign_shim_installed (phys dom)
