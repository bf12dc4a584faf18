(* Tests for the patrol service. *)

module Patrol = Modchecker.Patrol
module Cloud = Mc_hypervisor.Cloud
module Stress = Mc_workload.Stress

let check = Alcotest.check

let small_config =
  {
    Patrol.default_config with
    Patrol.watch = [ "hal.dll"; "http.sys" ];
    interval_s = 10.0;
  }

let test_clean_patrol_is_silent () =
  let cloud = Cloud.create ~vms:3 ~seed:501L () in
  let o = Patrol.run ~config:small_config cloud ~until:60.0 in
  check Alcotest.int "no alarms" 0 (List.length o.Patrol.alarms);
  check Alcotest.int "six sweeps in 60s at 10s interval" 6 o.Patrol.sweeps;
  Alcotest.(check bool) "cpu accounted" true (o.Patrol.cpu_spent > 0.0);
  Alcotest.(check bool) "sweep wall positive" true (o.Patrol.mean_sweep_wall > 0.0);
  Alcotest.(check bool) "clock advanced past the horizon" true
    (o.Patrol.virtual_elapsed >= 60.0)

let test_detects_timed_infection () =
  let cloud = Cloud.create ~vms:3 ~seed:502L () in
  let infect cloud =
    match Mc_malware.Infect.inline_hook cloud ~vm:1 with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let o =
    Patrol.run ~config:small_config ~events:[ (35.0, infect) ] cloud
      ~until:100.0
  in
  let hits =
    List.filter
      (fun a ->
        a.Patrol.alarm_module = "hal.dll"
        && a.Patrol.kind = Patrol.Hash_deviation)
      o.Patrol.alarms
  in
  Alcotest.(check bool) "alarms raised" true (hits <> []);
  (match hits with
  | first :: _ ->
      check Alcotest.(list int) "names the victim" [ 1 ] first.Patrol.alarm_vms;
      Alcotest.(check bool) "alarm after infection time" true
        (first.Patrol.at >= 35.0)
  | [] -> assert false);
  match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:35.0 with
  | Some ttd ->
      Alcotest.(check bool)
        (Printf.sprintf "TTD %.1fs within one interval + sweep" ttd)
        true
        (ttd >= 0.0 && ttd <= small_config.Patrol.interval_s +. 1.0)
  | None -> Alcotest.fail "time_to_detect must find the alarm"

let test_ttd_scales_with_interval () =
  let ttd interval =
    let cloud = Cloud.create ~vms:3 ~seed:503L () in
    let infect cloud =
      match Mc_malware.Infect.inline_hook cloud ~vm:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    in
    let config = { small_config with Patrol.interval_s = interval } in
    let o = Patrol.run ~config ~events:[ (5.0, infect) ] cloud ~until:200.0 in
    match Patrol.time_to_detect o ~module_name:"hal.dll" ~infected_at:5.0 with
    | Some t -> t
    | None -> Alcotest.fail "not detected"
  in
  Alcotest.(check bool) "longer interval, later detection" true
    (ttd 60.0 > ttd 10.0)

let test_hidden_module_alarm () =
  let cloud = Cloud.create ~vms:3 ~seed:504L () in
  let hide cloud =
    match Mc_malware.Infect.hide_module cloud ~vm:2 ~module_name:"http.sys" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let o =
    Patrol.run ~config:small_config ~events:[ (15.0, hide) ] cloud ~until:60.0
  in
  Alcotest.(check bool) "missing-module alarm raised" true
    (List.exists
       (fun a ->
         a.Patrol.kind = Patrol.Missing_module
         && a.Patrol.alarm_module = "http.sys"
         && a.Patrol.alarm_vms = [ 2 ])
       o.Patrol.alarms)

let test_unwatched_hidden_module_list_alarm () =
  let cloud = Cloud.create ~vms:3 ~seed:505L () in
  let hide cloud =
    match Mc_malware.Infect.hide_module cloud ~vm:0 ~module_name:"ntfs.sys" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* ntfs.sys is not on the watch list; only the list comparison sees it. *)
  let o =
    Patrol.run ~config:small_config ~events:[ (15.0, hide) ] cloud ~until:60.0
  in
  Alcotest.(check bool) "list-discrepancy alarm" true
    (List.exists
       (fun a ->
         a.Patrol.kind = Patrol.List_discrepancy
         && a.Patrol.alarm_module = "ntfs.sys")
       o.Patrol.alarms)

let test_load_slows_sweeps () =
  let sweep_wall loaded =
    let cloud = Cloud.create ~vms:6 ~cores:2 ~seed:506L () in
    if loaded then Cloud.set_workload_all cloud Stress.heavyload;
    let o = Patrol.run ~config:small_config cloud ~until:40.0 in
    o.Patrol.mean_sweep_wall
  in
  Alcotest.(check bool) "stressed cloud slows the patrol" true
    (sweep_wall true > sweep_wall false *. 1.5)

(* An incremental patrol votes with Merkle prints and escalates the
   one-opcode disagreement to Algorithm 2 by print class. *)
let test_incremental_prints_patrol () =
  let cloud = Cloud.create ~vms:3 ~seed:507L () in
  let infect cloud =
    match Mc_malware.Infect.single_opcode_replacement cloud ~vm:1 with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let config = { small_config with Patrol.incremental = true } in
  let o = Patrol.run ~config ~events:[ (12.0, infect) ] cloud ~until:60.0 in
  Alcotest.(check bool) "incremental patrol detects too" true
    (List.exists
       (fun a -> a.Patrol.kind = Patrol.Hash_deviation)
       o.Patrol.alarms)

let test_patrol_overrun () =
  (* An interval shorter than a sweep: the patrol must still make forward
     progress (back-to-back sweeps), never spin at one instant. *)
  let cloud = Cloud.create ~vms:6 ~seed:508L () in
  let config =
    { small_config with Patrol.interval_s = 0.001;
      watch = Mc_pe.Catalog.standard_modules }
  in
  let o = Patrol.run ~config cloud ~until:1.0 in
  Alcotest.(check bool) "finished" true (o.Patrol.virtual_elapsed >= 1.0);
  Alcotest.(check bool) "multiple sweeps" true (o.Patrol.sweeps > 1);
  Alcotest.(check bool) "bounded sweeps" true (o.Patrol.sweeps < 100)

let test_alarm_kind_strings () =
  check Alcotest.string "hash" "hash deviation"
    (Patrol.alarm_kind_string Patrol.Hash_deviation);
  check Alcotest.string "missing" "missing module"
    (Patrol.alarm_kind_string Patrol.Missing_module);
  check Alcotest.string "list" "module-list discrepancy"
    (Patrol.alarm_kind_string Patrol.List_discrepancy)

let () =
  Alcotest.run "patrol"
    [
      ( "service",
        [
          Alcotest.test_case "clean is silent" `Quick test_clean_patrol_is_silent;
          Alcotest.test_case "timed infection" `Quick test_detects_timed_infection;
          Alcotest.test_case "ttd vs interval" `Slow test_ttd_scales_with_interval;
          Alcotest.test_case "hidden watched module" `Quick
            test_hidden_module_alarm;
          Alcotest.test_case "hidden unwatched module" `Quick
            test_unwatched_hidden_module_list_alarm;
          Alcotest.test_case "load slows sweeps" `Quick test_load_slows_sweeps;
          Alcotest.test_case "incremental prints" `Quick
            test_incremental_prints_patrol;
          Alcotest.test_case "overrun" `Quick test_patrol_overrun;
          Alcotest.test_case "kind strings" `Quick test_alarm_kind_strings;
        ] );
    ]
