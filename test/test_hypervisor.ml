(* Tests for the hypervisor layer: domains, cloud cloning, the
   proportional-share scheduler, the cost model and meters. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Sched = Mc_hypervisor.Sched
module Costs = Mc_hypervisor.Costs
module Meter = Mc_hypervisor.Meter
module Xenctl = Mc_hypervisor.Xenctl
module Kernel = Mc_winkernel.Kernel
module Fs = Mc_winkernel.Fs
module Stress = Mc_workload.Stress
module Ldr = Mc_winkernel.Ldr

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* --- Cloud ---------------------------------------------------------------- *)

let test_cloud_shape () =
  let cloud = Cloud.create ~vms:3 ~cores:4 ~seed:5L () in
  check Alcotest.int "vm count" 3 (Cloud.vm_count cloud);
  check Alcotest.int "cores" 4 cloud.Cloud.cores;
  check Alcotest.string "dom0 name" "Domain-0" cloud.Cloud.dom0.Dom.dom_name;
  Alcotest.(check bool) "dom0 privileged" true (Dom.is_privileged cloud.Cloud.dom0);
  check Alcotest.string "domu name" "Dom2" (Cloud.vm cloud 1).Dom.dom_name;
  Alcotest.(check bool) "domu not privileged" false
    (Dom.is_privileged (Cloud.vm cloud 1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cloud.vm: no DomU index 3") (fun () ->
      ignore (Cloud.vm cloud 3))

let test_cloud_identical_disks () =
  let cloud = Cloud.create ~vms:2 ~seed:5L () in
  let file i =
    Option.get
      (Fs.read_file
         (Kernel.fs (Dom.kernel_exn (Cloud.vm cloud i)))
         (Fs.module_path "hal.dll"))
  in
  Alcotest.(check bool) "clones share file content" true
    (Bytes.equal (file 0) (file 1))

let test_cloud_disks_isolated () =
  let cloud = Cloud.create ~vms:2 ~seed:5L () in
  let fs0 = Kernel.fs (Dom.kernel_exn (Cloud.vm cloud 0)) in
  Fs.write_file fs0 (Fs.module_path "hal.dll") (Bytes.of_string "infected");
  let f1 =
    Option.get
      (Fs.read_file
         (Kernel.fs (Dom.kernel_exn (Cloud.vm cloud 1)))
         (Fs.module_path "hal.dll"))
  in
  Alcotest.(check bool) "other VM unaffected" true
    (Bytes.length f1 > 100)

let test_cloud_bases_differ_across_vms () =
  let cloud = Cloud.create ~vms:3 ~seed:5L () in
  let base i =
    (Option.get (Kernel.find_module (Dom.kernel_exn (Cloud.vm cloud i)) "hal.dll"))
      .Ldr.dll_base
  in
  let bases = [ base 0; base 1; base 2 ] in
  check Alcotest.int "all distinct" 3 (List.length (List.sort_uniq compare bases))

let test_cloud_reboot () =
  let cloud = Cloud.create ~vms:2 ~seed:5L () in
  let kernel_before = Dom.kernel_exn (Cloud.vm cloud 0) in
  let gen_before = Kernel.generation kernel_before in
  Cloud.reboot_vm cloud 0;
  let kernel_after = Dom.kernel_exn (Cloud.vm cloud 0) in
  check Alcotest.int "generation bumped" (gen_before + 1)
    (Kernel.generation kernel_after);
  Alcotest.(check bool) "fresh kernel object" true
    (kernel_before != kernel_after);
  Alcotest.(check bool) "same filesystem survives" true
    (Kernel.fs kernel_before == Kernel.fs kernel_after)

let test_workloads_and_busy_counts () =
  let cloud = Cloud.create ~vms:4 ~seed:5L () in
  check Alcotest.int "idle cloud" 0 (Cloud.busy_guest_vcpus cloud);
  check Alcotest.int "no bus pressure" 0 (Cloud.busy_vms cloud);
  (Cloud.vm cloud 0).Dom.workload <- Stress.cpu_only;
  check Alcotest.int "one busy" 1 (Cloud.busy_guest_vcpus cloud);
  Cloud.set_workload_all cloud Stress.heavyload;
  check Alcotest.int "all busy" 4 (Cloud.busy_guest_vcpus cloud);
  check Alcotest.int "all on the bus" 4 (Cloud.busy_vms cloud);
  (Cloud.vm cloud 1).Dom.paused <- true;
  check Alcotest.int "paused not busy" 3 (Cloud.busy_guest_vcpus cloud)

(* --- Stress -------------------------------------------------------------- *)

let test_stress () =
  Alcotest.(check bool) "idle not busy" false (Stress.is_cpu_busy Stress.idle);
  Alcotest.(check bool) "heavyload busy" true (Stress.is_cpu_busy Stress.heavyload);
  check feq "idle no pressure" 0.0 (Stress.bus_pressure Stress.idle);
  check feq "heavyload saturates" 1.0 (Stress.bus_pressure Stress.heavyload);
  Alcotest.(check bool) "cpu-only modest pressure" true
    (Stress.bus_pressure Stress.cpu_only < 0.5)

(* --- Sched --------------------------------------------------------------- *)

let test_share () =
  check feq "undercommit full speed" 1.0 (Sched.share ~cores:8 ~runnable:4);
  check feq "exact fit" 1.0 (Sched.share ~cores:8 ~runnable:8);
  check feq "2x overcommit" 0.5 (Sched.share ~cores:8 ~runnable:16);
  check feq "degenerate" 1.0 (Sched.share ~cores:8 ~runnable:0)

let test_run_jobs_single () =
  (* One job, no contention: wall == work. *)
  check feq "no contention" 0.25
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:1 [ 0.25 ]);
  (* Sequential jobs add. *)
  check feq "sequential sum" 0.6
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:1 [ 0.1; 0.2; 0.3 ])

let test_run_jobs_contention () =
  (* 1 worker + 15 busy vcpus on 8 cores: share = 8/16, wall doubles. *)
  check feq "saturated doubles" 0.2
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:15 ~workers:1 [ 0.1 ]);
  (* Below saturation nothing changes. *)
  check feq "below knee unchanged" 0.1
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:5 ~workers:1 [ 0.1 ])

let test_run_jobs_parallel () =
  (* 4 equal jobs on 4 workers, idle guests, enough cores: wall = one job. *)
  check feq "perfect parallelism" 0.1
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:4
       [ 0.1; 0.1; 0.1; 0.1 ]);
  (* 2 workers: two waves. *)
  check feq "two waves" 0.2
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:2
       [ 0.1; 0.1; 0.1; 0.1 ]);
  (* Workers exceeding cores contend with each other. *)
  check feq "workers self-contend" 0.2
    (Sched.run_jobs ~cores:2 ~busy_guest_vcpus:0 ~workers:4
       [ 0.1; 0.1; 0.1; 0.1 ])

let test_run_jobs_uneven () =
  (* List scheduling of uneven jobs: 0.3 on one worker, 0.1+0.2 on the
     other -> wall 0.3. *)
  check feq "uneven balanced" 0.3
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:2 [ 0.3; 0.1; 0.2 ])

let test_run_jobs_edge_cases () =
  check feq "no jobs" 0.0 (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:2 []);
  check feq "zero-cost jobs skipped" 0.0
    (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:1 [ 0.0; 0.0 ]);
  Alcotest.check_raises "workers must be positive"
    (Invalid_argument "Sched.run_jobs: need at least one worker") (fun () ->
      ignore (Sched.run_jobs ~cores:8 ~busy_guest_vcpus:0 ~workers:0 [ 1.0 ]))

let test_bus_factor () =
  let costs = Costs.default in
  check feq "no busy VMs" 1.0 (Sched.bus_factor costs ~busy_vms:0 ~cores:8);
  Alcotest.(check bool) "grows with load" true
    (Sched.bus_factor costs ~busy_vms:4 ~cores:8
    < Sched.bus_factor costs ~busy_vms:8 ~cores:8);
  check feq "saturates at core count"
    (Sched.bus_factor costs ~busy_vms:8 ~cores:8)
    (Sched.bus_factor costs ~busy_vms:100 ~cores:8)

(* --- Meter / Costs --------------------------------------------------------- *)

let test_meter_phases () =
  let m = Meter.create () in
  Meter.set_phase m Meter.Searcher;
  Meter.add_pages_mapped m 3;
  Meter.set_phase m Meter.Checker;
  Meter.add_bytes_hashed m 100;
  check Alcotest.int "searcher pages" 3 (Meter.get m Meter.Searcher).Meter.pages_mapped;
  check Alcotest.int "checker pages" 0 (Meter.get m Meter.Checker).Meter.pages_mapped;
  check Alcotest.int "checker hashed" 100
    (Meter.get m Meter.Checker).Meter.bytes_hashed;
  Meter.reset m;
  check Alcotest.int "reset" 0 (Meter.get m Meter.Searcher).Meter.pages_mapped

let test_meter_pricing () =
  let costs = Costs.default in
  let m = Meter.create () in
  Meter.set_phase m Meter.Searcher;
  Meter.add_pages_mapped m 10;
  Meter.add_bytes_copied m 1000;
  let expected =
    (10.0 *. costs.Costs.page_map_s) +. (1000.0 *. costs.Costs.copy_byte_s)
  in
  check feq "priced" expected (Meter.cpu_seconds costs (Meter.get m Meter.Searcher));
  check feq "total across phases" expected (Meter.total_cpu_seconds costs m)

let test_phase_names () =
  check Alcotest.string "searcher" "Module-Searcher" (Meter.phase_name Meter.Searcher);
  check Alcotest.string "parser" "Module-Parser" (Meter.phase_name Meter.Parser);
  check Alcotest.string "checker" "Integrity-Checker"
    (Meter.phase_name Meter.Checker)

let test_meter_merge () =
  let a = Meter.create () and b = Meter.create () in
  Meter.set_phase a Meter.Searcher;
  Meter.add_pages_mapped a 3;
  Meter.set_phase b Meter.Searcher;
  Meter.add_pages_mapped b 4;
  Meter.set_phase b Meter.Checker;
  Meter.add_bytes_hashed b 100;
  Meter.add_hypercalls b 2;
  Meter.add_pfns_checked b 50;
  Meter.merge a b;
  check Alcotest.int "searcher summed" 7
    (Meter.get a Meter.Searcher).Meter.pages_mapped;
  check Alcotest.int "checker hashed" 100
    (Meter.get a Meter.Checker).Meter.bytes_hashed;
  check Alcotest.int "hypercalls" 2 (Meter.get a Meter.Checker).Meter.hypercalls;
  check Alcotest.int "pfns" 50 (Meter.get a Meter.Checker).Meter.pfns_checked;
  (* Source is untouched and the destination's selected phase survives. *)
  check Alcotest.int "src intact" 4 (Meter.get b Meter.Searcher).Meter.pages_mapped;
  check Alcotest.string "dst phase" "Module-Searcher"
    (Meter.phase_name Meter.Searcher)

let test_hypercall_pricing () =
  let costs = Costs.default in
  let m = Meter.create () in
  Meter.set_phase m Meter.Searcher;
  Meter.add_hypercalls m 2;
  Meter.add_pfns_checked m 100;
  let expected =
    (2.0 *. costs.Costs.hypercall_s) +. (100.0 *. costs.Costs.dirty_scan_pfn_s)
  in
  check feq "priced" expected (Meter.total_cpu_seconds costs m)

(* --- Xenctl ---------------------------------------------------------------- *)

let test_xenctl_foreign_page () =
  let cloud = Cloud.create ~vms:1 ~seed:5L () in
  let d = Cloud.vm cloud 0 in
  let meter = Meter.create () in
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  let pa =
    Option.get (Mc_memsim.Addr_space.translate (Kernel.aspace kernel) e.Ldr.dll_base)
  in
  let page = Xenctl.map_foreign_page ~meter d (pa / Mc_memsim.Phys.frame_size) in
  check Alcotest.int "MZ in mapped page" Mc_pe.Flags.dos_magic
    (Bytes.get_uint16_le page (pa mod Mc_memsim.Phys.frame_size));
  check Alcotest.int "metered" 1 (Meter.get meter Meter.Searcher).Meter.pages_mapped

(* The frame behind hal.dll's first page, on Dom1 of a fresh pool. *)
let hal_frame seed =
  let cloud = Cloud.create ~vms:1 ~seed () in
  let d = Cloud.vm cloud 0 in
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  let pa =
    Option.get (Mc_memsim.Addr_space.translate (Kernel.aspace kernel) e.Ldr.dll_base)
  in
  (d, kernel, e.Ldr.dll_base, pa / Mc_memsim.Phys.frame_size)

(* Without a shim a mapping is a live view: a later guest write shows
   through it, as through a real foreign mapping. *)
let test_xenctl_live_view () =
  let d, kernel, va, pfn = hal_frame 7L in
  let page = Xenctl.map_foreign_page d pfn in
  Mc_memsim.Addr_space.write_bytes (Kernel.aspace kernel) va
    (Bytes.of_string "LIVE");
  check Alcotest.string "guest write visible" "LIVE" (Bytes.sub_string page 0 4)

(* A shim is handed a private copy: whatever it returns is what Dom0 maps,
   and the guest frame keeps its bytes even when the shim rewrites the
   copy in place. *)
let test_xenctl_shim_copy () =
  let d, kernel, _, pfn = hal_frame 8L in
  let phys = Kernel.phys kernel in
  let frame = Mc_memsim.Phys.read_page phys pfn in
  Mc_memsim.Phys.set_foreign_shim phys
    (Some
       (fun _ b ->
         Bytes.fill b 0 16 'S';
         b));
  let page = Xenctl.map_foreign_page d pfn in
  check Alcotest.string "shim's bytes mapped" (String.make 16 'S')
    (Bytes.sub_string page 0 16);
  Alcotest.(check bool) "frame untouched" true
    (Bytes.equal frame (Mc_memsim.Phys.read_page phys pfn));
  Mc_memsim.Phys.set_foreign_shim phys None;
  Alcotest.(check bool) "unshimmed map is the frame" true
    (Bytes.equal frame (Xenctl.map_foreign_page d pfn))

(* An unallocated pfn maps to zeros, and the guest still cannot write it. *)
let test_xenctl_unallocated_pfn () =
  let d, kernel, _, _ = hal_frame 9L in
  let phys = Kernel.phys kernel in
  let pfn = Mc_memsim.Phys.frames_allocated phys + 1000 in
  Alcotest.(check bool) "not allocated" false
    (Mc_memsim.Phys.frame_exists phys pfn);
  let page = Xenctl.map_foreign_page d pfn in
  check Alcotest.int "one frame" Mc_memsim.Phys.frame_size (Bytes.length page);
  Alcotest.(check bool) "zeros" true (Bytes.for_all (fun c -> c = '\000') page);
  Alcotest.(check bool) "guest write raises" true
    (match
       Mc_memsim.Phys.write phys
         (pfn * Mc_memsim.Phys.frame_size)
         (Bytes.of_string "X") 0 1
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "still zeros" true
    (Bytes.for_all (fun c -> c = '\000') (Xenctl.map_foreign_page d pfn))

let test_read_foreign_pa_zero_len () =
  (* A zero-length read used to meter [last - first + 1] pages with
     [last] one page before [first] — a bogus negative-ish charge. It
     must map and copy nothing. *)
  let cloud = Cloud.create ~vms:1 ~seed:5L () in
  let d = Cloud.vm cloud 0 in
  let meter = Meter.create () in
  Xenctl.read_foreign_pa ~meter d (3 * Mc_memsim.Phys.frame_size) Bytes.empty 0 0;
  let k = Meter.get meter Meter.Searcher in
  check Alcotest.int "no pages mapped" 0 k.Meter.pages_mapped;
  check Alcotest.int "no bytes copied" 0 k.Meter.bytes_copied;
  (* And a 1-byte read still meters exactly one page. *)
  Xenctl.read_foreign_pa ~meter d (3 * Mc_memsim.Phys.frame_size) (Bytes.create 1) 0 1;
  check Alcotest.int "one page for one byte" 1 k.Meter.pages_mapped

let test_watch_hypercalls () =
  let cloud = Cloud.create ~vms:1 ~seed:5L () in
  let d = Cloud.vm cloud 0 in
  let meter = Meter.create () in
  let kernel = Dom.kernel_exn d in
  let phys = Kernel.phys kernel in
  let pfn = Mc_memsim.Phys.alloc_frame phys in
  Xenctl.watch_pages ~meter d [ pfn ];
  let k = Meter.get meter Meter.Searcher in
  check Alcotest.int "arm: one hypercall" 1 k.Meter.hypercalls;
  check Alcotest.int "arm: one watch-arm unit" 1 k.Meter.watch_arms;
  (* Draining an empty ring is free — delivery is push. *)
  check Alcotest.int "nothing pending" 0 (Xenctl.pending_trap_events d);
  ignore (Xenctl.drain_events ~meter d);
  check Alcotest.int "empty drain costs nothing" 1 k.Meter.hypercalls;
  Xenctl.set_trap_clock d 42.0;
  Mc_memsim.Phys.write phys (pfn * Mc_memsim.Phys.frame_size)
    (Bytes.of_string "x") 0 1;
  (match Xenctl.drain_events ~meter d with
  | [ e ] ->
      check Alcotest.int "trapped pfn" pfn e.Mc_memsim.Phys.we_pfn;
      check (Alcotest.float 1e-9) "trap clock" 42.0 e.Mc_memsim.Phys.we_at
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)));
  check Alcotest.int "drain: second hypercall" 2 k.Meter.hypercalls;
  check Alcotest.int "drain: one trap-event unit" 1 k.Meter.trap_events;
  (* The new counters price into CPU seconds. *)
  check feq "watch work priced"
    ((2.0 *. Costs.default.Costs.hypercall_s)
    +. Costs.default.Costs.watch_arm_pfn_s
    +. Costs.default.Costs.trap_event_s)
    (Meter.cpu_seconds Costs.default k)

let test_dom_kernel_exn () =
  let d = Dom.create ~dom_id:0 ~dom_name:"Domain-0" None in
  Alcotest.check_raises "no kernel" (Failure "domain Domain-0 has no kernel")
    (fun () -> ignore (Dom.kernel_exn d))

let test_log_dirty () =
  let cloud = Cloud.create ~vms:1 ~seed:5L () in
  let d = Cloud.vm cloud 0 in
  let meter = Meter.create () in
  Xenctl.enable_log_dirty ~meter d;
  check Alcotest.(list int) "clean start" [] (Xenctl.peek_dirty d);
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  Mc_memsim.Addr_space.write_bytes (Kernel.aspace kernel) e.Ldr.dll_base
    (Bytes.of_string "XY");
  let dirty = Xenctl.peek_dirty ~meter d in
  check Alcotest.bool "write recorded" true (dirty <> []);
  check Alcotest.(list int) "clean drains" dirty (Xenctl.clean_dirty d);
  check Alcotest.(list int) "drained" [] (Xenctl.peek_dirty d);
  check Alcotest.int "hypercalls metered" 2
    (Meter.get meter Meter.Searcher).Meter.hypercalls

let test_pages_unchanged () =
  let cloud = Cloud.create ~vms:1 ~seed:5L () in
  let d = Cloud.vm cloud 0 in
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  let pa =
    Option.get
      (Mc_memsim.Addr_space.translate (Kernel.aspace kernel) e.Ldr.dll_base)
  in
  let pfn = pa / Mc_memsim.Phys.frame_size in
  let fp = [| (pfn, Xenctl.page_version d pfn) |] in
  let meter = Meter.create () in
  check Alcotest.bool "unchanged" true (Xenctl.stale_pfns ~meter d fp = []);
  check Alcotest.int "probe metered" 1
    (Meter.get meter Meter.Searcher).Meter.pfns_checked;
  Mc_memsim.Addr_space.write_bytes (Kernel.aspace kernel) e.Ldr.dll_base
    (Bytes.of_string "Z");
  check Alcotest.bool "write invalidates" false (Xenctl.stale_pfns d fp = []);
  (* Stamps travel with the bytes: a restored copy of the pre-write
     snapshot matches the old footprint again, in a new epoch. *)
  let snap = Cloud.snapshot_vm cloud 0 in
  let written = [| (pfn, Xenctl.page_version d pfn) |] in
  Cloud.reboot_vm cloud 0;
  check Alcotest.bool "reboot writes fresh stamps" false
    (Xenctl.stale_pfns d written = []);
  let epoch = Xenctl.memory_epoch d in
  Cloud.restore_vm cloud 0 snap;
  check Alcotest.bool "restore keeps the stamps" true
    (Xenctl.stale_pfns d written = []);
  check Alcotest.bool "in a new epoch" true (Xenctl.memory_epoch d <> epoch)

let () =
  Alcotest.run "hypervisor"
    [
      ( "cloud",
        [
          Alcotest.test_case "shape" `Quick test_cloud_shape;
          Alcotest.test_case "identical disks" `Quick test_cloud_identical_disks;
          Alcotest.test_case "isolated disks" `Quick test_cloud_disks_isolated;
          Alcotest.test_case "distinct bases" `Quick
            test_cloud_bases_differ_across_vms;
          Alcotest.test_case "reboot" `Quick test_cloud_reboot;
          Alcotest.test_case "busy counts" `Quick test_workloads_and_busy_counts;
        ] );
      ("stress", [ Alcotest.test_case "descriptors" `Quick test_stress ]);
      ( "sched",
        [
          Alcotest.test_case "share" `Quick test_share;
          Alcotest.test_case "single worker" `Quick test_run_jobs_single;
          Alcotest.test_case "contention" `Quick test_run_jobs_contention;
          Alcotest.test_case "parallel" `Quick test_run_jobs_parallel;
          Alcotest.test_case "uneven" `Quick test_run_jobs_uneven;
          Alcotest.test_case "edge cases" `Quick test_run_jobs_edge_cases;
          Alcotest.test_case "bus factor" `Quick test_bus_factor;
        ] );
      ( "meter",
        [
          Alcotest.test_case "phases" `Quick test_meter_phases;
          Alcotest.test_case "pricing" `Quick test_meter_pricing;
          Alcotest.test_case "names" `Quick test_phase_names;
          Alcotest.test_case "merge" `Quick test_meter_merge;
          Alcotest.test_case "hypercall pricing" `Quick test_hypercall_pricing;
        ] );
      ( "xenctl",
        [
          Alcotest.test_case "foreign page" `Quick test_xenctl_foreign_page;
          Alcotest.test_case "live view" `Quick test_xenctl_live_view;
          Alcotest.test_case "shim copy" `Quick test_xenctl_shim_copy;
          Alcotest.test_case "unallocated pfn" `Quick
            test_xenctl_unallocated_pfn;
          Alcotest.test_case "zero-length read" `Quick
            test_read_foreign_pa_zero_len;
          Alcotest.test_case "write-trap hypercalls" `Quick
            test_watch_hypercalls;
          Alcotest.test_case "kernel_exn" `Quick test_dom_kernel_exn;
          Alcotest.test_case "log-dirty" `Quick test_log_dirty;
          Alcotest.test_case "pages_unchanged" `Quick test_pages_unchanged;
        ] );
    ]
