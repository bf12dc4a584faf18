(* Patrol service: ModChecker as a continuous cloud monitor.

   The paper pitches ModChecker as a light-weight first-line check that
   triggers deeper analysis. This example runs that service on the
   simulated cloud's clock: a 6-VM pool is patrolled every 30 virtual
   seconds; at t = 130 s a rootkit hooks hal.dll inside Dom3; the patrol's
   next sweep raises the alarm, and the log shows the time-to-detect.

   Run with:  dune exec examples/patrol_service.exe *)

module Patrol = Modchecker.Patrol
module Cloud = Mc_hypervisor.Cloud

let () =
  let cloud = Cloud.create ~vms:6 ~cores:8 ~seed:77L () in
  let infect cloud =
    match Mc_malware.Infect.inline_hook cloud ~vm:2 with
    | Ok infection -> Printf.printf "[t= 130.0s] (attacker) %s\n" infection.details
    | Error e -> failwith e
  in
  let config =
    {
      Patrol.default_config with
      Patrol.watch = [ "ntoskrnl.exe"; "hal.dll"; "http.sys"; "tcpip.sys" ];
      interval_s = 30.0;
      incremental = true;
    }
  in
  Printf.printf
    "patrolling %d VMs every %.0fs (incremental Merkle prints), infection \
     lands at t=130s...\n\n"
    (Cloud.vm_count cloud) config.Patrol.interval_s;
  let outcome = Patrol.run ~config ~events:[ (130.0, infect) ] cloud ~until:300.0 in
  List.iter
    (fun a ->
      Printf.printf "[t=%6.1fs] ALARM: %s — %s on %s\n" a.Patrol.at
        (Patrol.alarm_kind_string a.Patrol.kind)
        a.Patrol.alarm_module
        (String.concat ", "
           (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) a.Patrol.alarm_vms)))
    outcome.Patrol.alarms;
  Printf.printf
    "\n%d sweeps, %.3f s Dom0 CPU over %.0f s (%.3f%% duty), mean sweep %.1f ms\n"
    outcome.Patrol.sweeps outcome.Patrol.cpu_spent
    outcome.Patrol.virtual_elapsed
    (100.0 *. outcome.Patrol.cpu_spent /. outcome.Patrol.virtual_elapsed)
    (outcome.Patrol.mean_sweep_wall *. 1e3);
  (match
     Patrol.time_to_detect outcome ~module_name:"hal.dll" ~infected_at:130.0
   with
  | Some ttd -> Printf.printf "time to detect: %.1f s after infection\n" ttd
  | None -> print_endline "infection was not detected (unexpected)");
  (* The interval is the knob: show the trade-off curve. *)
  print_newline ();
  print_string
    (Mc_harness.Render.patrol_table (Mc_harness.Figures.patrol_tradeoff ()))
