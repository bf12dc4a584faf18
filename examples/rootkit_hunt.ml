(* Rootkit hunt: the incident-response view.

   Stages three stealthy kernel infections on different VMs of one cloud —
   an inline hook (Fig. 5), a DLL injection into a driver (experiment 4),
   and a DKOM-hidden module — then walks through how each betrays itself,
   including a Fig.-5-style hex view of the hooked function.

   Run with:  dune exec examples/rootkit_hunt.exe *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Kernel = Mc_winkernel.Kernel
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Catalog = Mc_pe.Catalog

let banner title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let cloud = Cloud.create ~vms:6 ~cores:8 ~seed:99L () in

  (* --- 1. inline hook on Dom2's hal.dll ------------------------------- *)
  banner "inline hook (TCPIRPHOOK-style)";
  let kernel = Dom.kernel_exn (Cloud.vm cloud 1) in
  let hal = Option.get (Kernel.find_module kernel "hal.dll") in
  let rva = Catalog.fn_rva (Catalog.image "hal.dll") "HalInitSystem" in
  let func_va = hal.dll_base + rva in
  let before = Mc_memsim.Addr_space.read_bytes (Kernel.aspace kernel) func_va 16 in
  let hook =
    match
      Mc_malware.Inline_hook.hook (Kernel.aspace kernel)
        ~module_base:hal.dll_base ~func_va
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let after = Mc_memsim.Addr_space.read_bytes (Kernel.aspace kernel) func_va 16 in
  Printf.printf "HalInitSystem at 0x%08x, payload cave at 0x%08x\n" func_va
    hook.cave_va;
  Printf.printf "prologue before: %s\n" (Mc_util.Hexdump.bytes_inline before);
  Printf.printf "prologue after:  %s   (E9 = jmp rel32, 90 = nop)\n"
    (Mc_util.Hexdump.bytes_inline after);
  (match Orchestrator.check_module cloud ~target_vm:1 ~module_name:"hal.dll" with
  | Ok o -> Printf.printf "ModChecker: %s\n" (Report.verdict_string o.report)
  | Error e -> failwith e);

  (* The deeper analysis the paper's conclusion hands off to: trace how
     .text was patched, and sweep the pool for the payload signature. *)
  let fetch vm =
    let dom = Cloud.vm cloud vm in
    let vmi = Mc_vmi.Vmi.init dom Mc_vmi.Symbols.windows_xp_sp2 in
    match Modchecker.Searcher.fetch vmi ~name:"hal.dll" with
    | Some (info, buf) -> (
        match Modchecker.Parser.artifacts buf with
        | Ok a -> (info, a)
        | Error e -> failwith e)
    | None -> failwith "hal.dll not found"
  in
  let info_i, arts_i = fetch 1 and info_r, arts_r = fetch 2 in
  (match
     Modchecker.Hook_tracer.analyze
       ~symbols:(Catalog.symbols (Catalog.image "hal.dll"))
       ~base_infected:info_i.Modchecker.Searcher.mi_base arts_i
       ~base_reference:info_r.Modchecker.Searcher.mi_base arts_r
   with
  | Ok findings ->
      List.iter
        (fun c -> Printf.printf "tracer: %s\n" (Modchecker.Hook_tracer.to_string c))
        findings
  | Error e -> Printf.printf "tracer failed: %s\n" e);
  let marker = Bytes.create 5 in
  Bytes.set marker 0 '\xB8';
  Mc_util.Le.set_u32 marker 1 Mc_malware.Inline_hook.payload_marker;
  for vm = 0 to Cloud.vm_count cloud - 1 do
    let dom = Cloud.vm cloud vm in
    let vmi = Mc_vmi.Vmi.init dom Mc_vmi.Symbols.windows_xp_sp2 in
    match Modchecker.Searcher.find_module vmi ~name:"hal.dll" with
    | Some info ->
        let hits =
          Mc_vmi.Scanner.scan_module vmi ~base:info.mi_base ~size:info.mi_size
            ~pattern:marker
        in
        if hits <> [] then
          Printf.printf "signature sweep: payload marker in Dom%d at 0x%08x\n"
            (vm + 1) (List.hd hits)
    | None -> ()
  done;

  (* --- 2. DLL injection into Dom4's dummy.sys -------------------------- *)
  banner "DLL injection (Rustock.B-style import hooking)";
  (match Mc_malware.Infect.dll_injection cloud ~vm:3 with
  | Ok infection -> Printf.printf "%s\n" infection.details
  | Error e -> failwith e);
  (match Orchestrator.check_module cloud ~target_vm:3 ~module_name:"dummy.sys" with
  | Ok o ->
      Printf.printf "ModChecker: %s\n%s" (Report.verdict_string o.report)
        (Report.to_table o.report)
  | Error e -> failwith e);

  (* --- 3. DKOM hiding of http.sys on Dom6 ------------------------------ *)
  banner "DKOM module hiding";
  (match Mc_malware.Infect.hide_module cloud ~vm:5 ~module_name:"http.sys" with
  | Ok infection -> Printf.printf "%s\n" infection.details
  | Error e -> failwith e);
  (* Hashing cannot see a module that is not in the list; the cross-VM
     module-list comparison can. *)
  List.iter
    (fun d ->
      Printf.printf
        "module-list discrepancy: %s present on %d VM(s), missing on %s\n"
        d.Orchestrator.ld_module
        (List.length d.Orchestrator.present_on)
        (String.concat ", "
           (List.map
              (fun v -> Printf.sprintf "Dom%d" (v + 1))
              d.Orchestrator.missing_on)))
    (Orchestrator.survey_module_lists cloud).Orchestrator.lc_discrepancies;

  (* --- 4. pool-wide verdict ------------------------------------------- *)
  banner "pool survey of hal.dll";
  let survey = Orchestrator.survey cloud ~module_name:"hal.dll" in
  Printf.printf "deviant VMs: %s\n"
    (String.concat ", "
       (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) survey.Report.deviant_vms))
