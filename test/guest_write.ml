(* Raw guest writes into a loaded module's image, below the level of
   Mc_malware.Infect: the tampering that tests replay identically on
   several VMs at their different load bases. *)

(* Writes [byte] at image offset [at size_of_image] of [module_name] on
   [vm]; false when the module is not loaded there. *)
let poke cloud ~vm ~module_name ~at byte =
  let kernel =
    Mc_hypervisor.Dom.kernel_exn (Mc_hypervisor.Cloud.vm cloud vm)
  in
  match Mc_winkernel.Kernel.find_module kernel module_name with
  | None -> false
  | Some e ->
      Mc_memsim.Addr_space.write_bytes
        (Mc_winkernel.Kernel.aspace kernel)
        (e.Mc_winkernel.Ldr.dll_base + at e.Mc_winkernel.Ldr.size_of_image)
        (Bytes.make 1 byte);
      true

(* The image offset a fraction [frac] in [0, 1) of the way through. *)
let fraction frac size = int_of_float (frac *. float_of_int size)
