(* Tests for the VMI (libVMI-equivalent) layer. *)

module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Xenctl = Mc_hypervisor.Xenctl
module Vmi = Mc_vmi.Vmi
module Symbols = Mc_vmi.Symbols
module Kernel = Mc_winkernel.Kernel
module Layout = Mc_winkernel.Layout
module As = Mc_memsim.Addr_space
module Phys = Mc_memsim.Phys

let check = Alcotest.check

let cloud = lazy (Cloud.create ~vms:2 ~cores:4 ~seed:31L ())

let dom () = Cloud.vm (Lazy.force cloud) 0

let test_symbols () =
  check Alcotest.(option int) "PsLoadedModuleList"
    (Some Layout.ps_loaded_module_list)
    (Symbols.lookup Symbols.windows_xp_sp2 "PsLoadedModuleList");
  check Alcotest.(option int) "unknown" None
    (Symbols.lookup Symbols.windows_xp_sp2 "NoSuchSymbol");
  Alcotest.check_raises "lookup_exn" Not_found (fun () ->
      ignore (Symbols.lookup_exn Symbols.windows_xp_sp2 "NoSuchSymbol"))

let test_read_ksym () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  check Alcotest.int "ksym" Layout.ps_loaded_module_list
    (Vmi.read_ksym vmi "PsLoadedModuleList")

let test_translate_matches_guest () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  let kernel = Dom.kernel_exn (dom ()) in
  let va = Layout.ps_loaded_module_list in
  check
    Alcotest.(option int)
    "external walk equals guest MMU"
    (As.translate (Kernel.aspace kernel) va)
    (Vmi.translate_kv2p vmi va);
  check Alcotest.(option int) "unmapped is None" None
    (Vmi.translate_kv2p vmi 0x10000000)

let test_read_va_matches_guest () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  let kernel = Dom.kernel_exn (dom ()) in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  let via_vmi = Vmi.read_va vmi e.dll_base 0x2000 in
  let via_guest = As.read_bytes (Kernel.aspace kernel) e.dll_base 0x2000 in
  Alcotest.(check bool) "contents equal (cross-page)" true
    (Bytes.equal via_vmi via_guest)

let test_read_va_invalid () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  Alcotest.check_raises "invalid address" (Vmi.Invalid_address 0x10000000)
    (fun () -> ignore (Vmi.read_va vmi 0x10000000 4));
  check Alcotest.(option string) "try_read None" None
    (Option.map Bytes.to_string (Vmi.try_read_va vmi 0x10000000 4))

let test_read_va_padded () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  let kernel = Dom.kernel_exn (dom ()) in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  (* A range straddling the end of the module: mapped then unmapped. *)
  let page = Phys.frame_size in
  let start = e.dll_base + e.size_of_image - page in
  let b = Vmi.read_va_padded vmi start (3 * page) in
  check Alcotest.int "full length" (3 * page) (Bytes.length b);
  let tail = Bytes.sub b page (2 * page) in
  Alcotest.(check bool) "unmapped tail zero-filled" true
    (Bytes.for_all (fun c -> c = '\000') tail);
  (* A fresh buffer may read as zeros by luck, so fill a reused one
     with another byte first: every byte of it must be written. *)
  let dst = Bytes.make (3 * page) '\xa5' in
  Vmi.read_va_padded_into vmi start dst;
  Alcotest.(check bool) "dirty buffer: tail zeroed, head as read" true
    (Bytes.equal dst b)

let test_page_cache_and_metering () =
  let meter = Meter.create () in
  Meter.set_phase meter Meter.Searcher;
  let vmi = Vmi.init ~meter (dom ()) Symbols.windows_xp_sp2 in
  check Alcotest.int "session metered" 1
    (Meter.get meter Meter.Searcher).Meter.vm_sessions;
  let e =
    Option.get (Kernel.find_module (Dom.kernel_exn (dom ())) "hal.dll")
  in
  ignore (Vmi.read_va vmi e.dll_base 4096);
  let pages_first = (Meter.get meter Meter.Searcher).Meter.pages_mapped in
  Alcotest.(check bool) "mapped at least data+tables" true (pages_first >= 1);
  ignore (Vmi.read_va vmi e.dll_base 4096);
  check Alcotest.int "cache prevents remapping" pages_first
    (Meter.get meter Meter.Searcher).Meter.pages_mapped;
  Alcotest.(check bool) "bytes metered" true
    ((Meter.get meter Meter.Searcher).Meter.bytes_copied >= 8192);
  Alcotest.(check bool) "cache populated" true (Vmi.pages_cached vmi > 0);
  Vmi.flush_cache vmi;
  check Alcotest.int "cache flushed" 0 (Vmi.pages_cached vmi);
  ignore (Vmi.read_va vmi e.dll_base 4096);
  Alcotest.(check bool) "remapped after flush" true
    ((Meter.get meter Meter.Searcher).Meter.pages_mapped > pages_first)

(* Regression: the page cache used to serve stale copies forever. A guest
   write mid-session must be visible through the SAME session. *)
let test_cache_staleness_on_guest_write () =
  let cloud = Cloud.create ~vms:2 ~cores:4 ~seed:97L () in
  let d = Cloud.vm cloud 0 in
  let vmi = Vmi.init d Symbols.windows_xp_sp2 in
  let e = Option.get (Kernel.find_module (Dom.kernel_exn d) "hal.dll") in
  let before = Vmi.read_va_padded vmi e.dll_base e.size_of_image in
  (match Mc_malware.Infect.inline_hook cloud ~vm:0 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let after = Vmi.read_va_padded vmi e.dll_base e.size_of_image in
  Alcotest.(check bool) "same session sees the infection" false
    (Bytes.equal before after)

(* Cache entries are live views of guest frames, so an entry filled
   before a guest write must never be served after it: neither through a
   shared cache to another session, nor to the session that filled it.
   Each such read maps the frame again, and the footprint records the
   version the read saw. What a read returned is a copy the write does
   not reach. *)
let test_live_view_revalidated () =
  let cloud = Cloud.create ~vms:1 ~cores:4 ~seed:101L () in
  let d = Cloud.vm cloud 0 in
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  let va = e.dll_base + 0x40 in
  let pfn = Option.get (As.translate (Kernel.aspace kernel) va) / Phys.frame_size in
  let cache = Vmi.create_cache () in
  let meter = Meter.create () in
  Meter.set_phase meter Meter.Searcher;
  let mapped () = (Meter.get meter Meter.Searcher).Meter.pages_mapped in
  let recorded s = List.assoc pfn (Array.to_list (Vmi.footprint s)) in
  let s1 = Vmi.init ~meter ~cache d Symbols.windows_xp_sp2 in
  let first = Vmi.read_va s1 va 8 in
  let kept = Bytes.copy first in
  let m0 = mapped () in
  let write s = As.write_bytes (Kernel.aspace kernel) va (Bytes.of_string s) in
  write "WRITE#01";
  Alcotest.(check bool) "earlier read is a copy" true (Bytes.equal kept first);
  let s2 = Vmi.init ~meter ~cache d Symbols.windows_xp_sp2 in
  check Alcotest.string "shared cache: new bytes" "WRITE#01"
    (Bytes.to_string (Vmi.read_va s2 va 8));
  check Alcotest.int "shared cache: frame mapped again" (m0 + 1) (mapped ());
  check Alcotest.int "shared cache: footprint has the new version"
    (Xenctl.page_version d pfn) (recorded s2);
  write "WRITE#02";
  check Alcotest.string "same session: new bytes" "WRITE#02"
    (Bytes.to_string (Vmi.read_va s1 va 8));
  check Alcotest.int "same session: frame mapped again" (m0 + 2) (mapped ());
  check Alcotest.int "same session: footprint has the new version"
    (Xenctl.page_version d pfn) (recorded s1);
  check Alcotest.string "validated entry served" "WRITE#02"
    (Bytes.to_string (Vmi.read_va s2 va 8));
  check Alcotest.int "no map for a valid entry" (m0 + 2) (mapped ())

let test_resume_flushes_cache () =
  let vmi = Vmi.init (dom ()) Symbols.windows_xp_sp2 in
  ignore (Vmi.read_va vmi Layout.ps_loaded_module_list 8);
  Alcotest.(check bool) "cached" true (Vmi.pages_cached vmi > 0);
  Vmi.resume vmi;
  check Alcotest.int "flushed on resume" 0 (Vmi.pages_cached vmi)

let test_footprint () =
  let cloud = Cloud.create ~vms:1 ~cores:4 ~seed:98L () in
  let d = Cloud.vm cloud 0 in
  let vmi = Vmi.init d Symbols.windows_xp_sp2 in
  ignore (Vmi.read_va vmi Layout.ps_loaded_module_list 8);
  let fp = Vmi.footprint vmi in
  Alcotest.(check bool) "covers data and page tables" true
    (Array.length fp >= 2);
  Alcotest.(check bool) "currently unchanged" true
    (Xenctl.stale_pfns d fp = []);
  let kernel = Dom.kernel_exn d in
  Mc_memsim.Addr_space.write_bytes (Kernel.aspace kernel)
    Layout.ps_loaded_module_list (Bytes.of_string "XXXX");
  Alcotest.(check bool) "guest write breaks the footprint" false
    (Xenctl.stale_pfns d fp = [])

let test_shared_cache_across_sessions () =
  let cloud = Cloud.create ~vms:1 ~cores:4 ~seed:99L () in
  let d = Cloud.vm cloud 0 in
  let cache = Vmi.create_cache () in
  let meter = Meter.create () in
  Meter.set_phase meter Meter.Searcher;
  let s1 = Vmi.init ~meter ~cache d Symbols.windows_xp_sp2 in
  ignore (Vmi.read_va s1 Layout.ps_loaded_module_list 8);
  let mapped = (Meter.get meter Meter.Searcher).Meter.pages_mapped in
  let s2 = Vmi.init ~meter ~cache d Symbols.windows_xp_sp2 in
  ignore (Vmi.read_va s2 Layout.ps_loaded_module_list 8);
  check Alcotest.int "second session reuses mapped pages" mapped
    (Meter.get meter Meter.Searcher).Meter.pages_mapped

let test_pause_resume () =
  let d = dom () in
  let vmi = Vmi.init d Symbols.windows_xp_sp2 in
  Vmi.pause vmi;
  Alcotest.(check bool) "paused" true d.Dom.paused;
  Vmi.resume vmi;
  Alcotest.(check bool) "resumed" false d.Dom.paused

let test_read_pa () =
  let d = dom () in
  let vmi = Vmi.init d Symbols.windows_xp_sp2 in
  let kernel = Dom.kernel_exn d in
  (* Translate a known VA with the guest MMU, then read the PA directly. *)
  let va = Layout.ps_loaded_module_list in
  let pa = Option.get (As.translate (Kernel.aspace kernel) va) in
  let via_pa = Vmi.read_pa vmi pa 8 in
  let via_va = Vmi.read_va vmi va 8 in
  Alcotest.(check bool) "PA and VA views agree" true (Bytes.equal via_pa via_va)

let test_u32_u16_accessors () =
  let d = dom () in
  let vmi = Vmi.init d Symbols.windows_xp_sp2 in
  let kernel = Dom.kernel_exn d in
  let e = Option.get (Kernel.find_module kernel "hal.dll") in
  (* The module's first two bytes are "MZ". *)
  check Alcotest.int "u16 MZ" Mc_pe.Flags.dos_magic (Vmi.read_va_u16 vmi e.dll_base);
  check Alcotest.int "u32 int"
    (As.read_u32_int (Kernel.aspace kernel) e.dll_base)
    (Vmi.read_va_u32_int vmi e.dll_base)

let test_xenctl_cr3 () =
  let d = dom () in
  check Alcotest.int "cr3 from vcpu context"
    (Kernel.cr3 (Dom.kernel_exn d))
    (Xenctl.get_vcpu_cr3 d)

let () =
  Alcotest.run "vmi"
    [
      ( "symbols",
        [
          Alcotest.test_case "profile" `Quick test_symbols;
          Alcotest.test_case "read_ksym" `Quick test_read_ksym;
        ] );
      ( "translation",
        [
          Alcotest.test_case "kv2p" `Quick test_translate_matches_guest;
          Alcotest.test_case "cr3" `Quick test_xenctl_cr3;
        ] );
      ( "reads",
        [
          Alcotest.test_case "read_va" `Quick test_read_va_matches_guest;
          Alcotest.test_case "invalid" `Quick test_read_va_invalid;
          Alcotest.test_case "padded" `Quick test_read_va_padded;
          Alcotest.test_case "read_pa" `Quick test_read_pa;
          Alcotest.test_case "accessors" `Quick test_u32_u16_accessors;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "cache + metering" `Quick
            test_page_cache_and_metering;
          Alcotest.test_case "pause/resume" `Quick test_pause_resume;
          Alcotest.test_case "staleness regression" `Quick
            test_cache_staleness_on_guest_write;
          Alcotest.test_case "resume flushes" `Quick test_resume_flushes_cache;
          Alcotest.test_case "live view" `Quick test_live_view_revalidated;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "shared cache" `Quick
            test_shared_cache_across_sessions;
        ] );
    ]
