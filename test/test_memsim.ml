(* Tests for the guest memory simulator: physical frames, page tables, and
   address spaces. *)

module Phys = Mc_memsim.Phys
module Pagetable = Mc_memsim.Pagetable
module As = Mc_memsim.Addr_space

let check = Alcotest.check

let page = Phys.frame_size

(* --- Phys --------------------------------------------------------------- *)

let test_phys_alloc () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys and b = Phys.alloc_frame phys in
  Alcotest.(check bool) "distinct frames" true (a <> b);
  Alcotest.(check bool) "pfn 0 reserved" true (a <> 0 && b <> 0);
  check Alcotest.int "allocated count" 2 (Phys.frames_allocated phys);
  Alcotest.(check bool) "exists" true (Phys.frame_exists phys a);
  Alcotest.(check bool) "not exists" false (Phys.frame_exists phys 9999)

let test_phys_rw_roundtrip () =
  let phys = Phys.create () in
  let pfn = Phys.alloc_frame phys in
  let src = Bytes.of_string "hello frame" in
  Phys.write phys ((pfn * page) + 100) src 0 (Bytes.length src);
  let dst = Bytes.create (Bytes.length src) in
  Phys.read phys ((pfn * page) + 100) dst 0 (Bytes.length dst);
  check Alcotest.string "roundtrip" "hello frame" (Bytes.to_string dst)

let test_phys_versions () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys in
  let b = Phys.alloc_frame phys in
  check Alcotest.int "fresh version" 0 (Phys.page_version phys a);
  let gen0 = Phys.write_generation phys in
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  let a1 = Phys.page_version phys a in
  Alcotest.(check bool) "bumped" true (a1 > 0);
  check Alcotest.int "untouched" 0 (Phys.page_version phys b);
  Alcotest.(check bool) "generation advanced" true
    (Phys.write_generation phys > gen0);
  (* A cross-frame write dirties both frames, with stamps that only
     grow. *)
  Phys.write phys ((a * page) + page - 1) (Bytes.of_string "xy") 0 2;
  Alcotest.(check bool) "first bumped again" true (Phys.page_version phys a > a1);
  Alcotest.(check bool) "second bumped" true (Phys.page_version phys b > a1);
  (* Stamps are process-wide: a write to another memory never reuses one,
     and a copy keeps them with the bytes. *)
  let other = Phys.create () in
  let c = Phys.alloc_frame other in
  Phys.write other (c * page) (Bytes.of_string "x") 0 1;
  Alcotest.(check bool) "increasing across memories" true
    (Phys.page_version other c > Phys.page_version phys b);
  let copy = Phys.deep_copy phys in
  check Alcotest.int "copy keeps the stamp" (Phys.page_version phys a)
    (Phys.page_version copy a);
  Alcotest.(check bool) "copy is another epoch" true
    (Phys.uid copy <> Phys.uid phys)

let test_phys_log_dirty () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys in
  let b = Phys.alloc_frame phys in
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  check Alcotest.(list int) "off: nothing recorded" [] (Phys.peek_dirty phys);
  Phys.set_log_dirty phys true;
  Alcotest.(check bool) "enabled" true (Phys.log_dirty_enabled phys);
  Phys.write phys (b * page) (Bytes.of_string "x") 0 1;
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  check Alcotest.(list int) "sorted dirty set" [ a; b ] (Phys.peek_dirty phys);
  check Alcotest.(list int) "clean drains" [ a; b ] (Phys.clean_dirty phys);
  check Alcotest.(list int) "empty after clean" [] (Phys.peek_dirty phys);
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  Phys.set_log_dirty phys false;
  check Alcotest.(list int) "disable drops" [] (Phys.peek_dirty phys)

let test_phys_uid_fresh_on_copy () =
  let phys = Phys.create () in
  ignore (Phys.alloc_frame phys);
  let copy = Phys.deep_copy phys in
  Alcotest.(check bool) "distinct uid" true (Phys.uid copy <> Phys.uid phys);
  Alcotest.(check bool) "fresh instance distinct" true
    (Phys.uid (Phys.create ()) <> Phys.uid phys)

let test_phys_cross_frame () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys in
  let b = Phys.alloc_frame phys in
  (* Frames are consecutive pfns from the bump allocator. *)
  check Alcotest.int "consecutive" (a + 1) b;
  let src = Bytes.of_string (String.make 100 'Z') in
  let start = (a * page) + page - 50 in
  Phys.write phys start src 0 100;
  let dst = Bytes.create 100 in
  Phys.read phys start dst 0 100;
  check Alcotest.string "cross-frame roundtrip" (Bytes.to_string src)
    (Bytes.to_string dst)

let test_phys_unallocated_reads_zero () =
  let phys = Phys.create () in
  let dst = Bytes.make 8 'x' in
  Phys.read phys (12345 * page) dst 0 8;
  check Alcotest.string "zeros" (String.make 8 '\000') (Bytes.to_string dst)

let test_phys_unallocated_write_raises () =
  let phys = Phys.create () in
  Alcotest.(check bool) "write raises" true
    (match Phys.write phys (777 * page) (Bytes.make 4 'x') 0 4 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_phys_u32 () =
  let phys = Phys.create () in
  let pfn = Phys.alloc_frame phys in
  Phys.write_u32 phys (pfn * page) 0xCAFEBABEl;
  check Alcotest.int32 "u32 roundtrip" 0xCAFEBABEl (Phys.read_u32 phys (pfn * page))

let test_phys_exhaustion () =
  let phys = Phys.create ~max_frames:2 () in
  ignore (Phys.alloc_frame phys);
  ignore (Phys.alloc_frame phys);
  Alcotest.check_raises "exhausted"
    (Failure "Phys.alloc_frame: out of physical memory") (fun () ->
      ignore (Phys.alloc_frame phys))

let test_watch_traps () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys and b = Phys.alloc_frame phys in
  Phys.watch_frames phys [ a; b ];
  check Alcotest.(list int) "armed" (List.sort compare [ a; b ])
    (Phys.watched_frames phys);
  Phys.set_watch_clock phys 12.5;
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  let first = Phys.page_version phys a in
  Phys.set_watch_clock phys 13.0;
  Phys.write phys (a * page) (Bytes.of_string "y") 0 1;
  (* The first write trapped and disarmed the frame; the second write is
     trap-free, so the two coalesce into one event at the first time. *)
  check Alcotest.int "one pending event" 1 (Phys.pending_watch_events phys);
  check Alcotest.(list int) "a disarmed, b still armed" [ b ]
    (Phys.watched_frames phys);
  (match Phys.drain_watch_events phys with
  | [ e ] ->
      check Alcotest.int "trapped pfn" a e.Phys.we_pfn;
      check (Alcotest.float 1e-9) "stamped with the first write's clock" 12.5
        e.Phys.we_at;
      check Alcotest.int "the first write's stamp" first e.Phys.we_version;
      Alcotest.(check bool) "the second write restamped" true
        (Phys.page_version phys a > first)
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)));
  check Alcotest.int "drain cleared the queue" 0 (Phys.pending_watch_events phys);
  (* Re-arming traps again. *)
  Phys.watch_frames phys [ a ];
  Phys.set_watch_clock phys 20.0;
  Phys.write phys (a * page) (Bytes.of_string "z") 0 1;
  check Alcotest.int "re-armed frame traps again" 1
    (Phys.pending_watch_events phys);
  ignore (Phys.drain_watch_events phys);
  (* unwatch never traps. *)
  Phys.unwatch_frames phys [ b ];
  Phys.write phys (b * page) (Bytes.of_string "w") 0 1;
  check Alcotest.int "unwatched frame is silent" 0
    (Phys.pending_watch_events phys);
  check Alcotest.(list int) "nothing armed" [] (Phys.watched_frames phys)

let test_watch_not_copied () =
  let phys = Phys.create () in
  let a = Phys.alloc_frame phys in
  Phys.watch_frames phys [ a ];
  Phys.write phys (a * page) (Bytes.of_string "x") 0 1;
  let copy = Phys.deep_copy phys in
  check Alcotest.(list int) "copy has no watches" [] (Phys.watched_frames copy);
  check Alcotest.int "copy has no pending events" 0
    (Phys.pending_watch_events copy);
  check Alcotest.int "original keeps its event" 1
    (Phys.pending_watch_events phys)

let test_read_page () =
  let phys = Phys.create () in
  let pfn = Phys.alloc_frame phys in
  Phys.write phys ((pfn * page) + 7) (Bytes.of_string "abc") 0 3;
  let data = Phys.read_page phys pfn in
  check Alcotest.int "page size" page (Bytes.length data);
  check Alcotest.string "content" "abc" (Bytes.sub_string data 7 3)

(* --- Pagetable ----------------------------------------------------------- *)

let test_pagetable_map_translate () =
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  let pfn = Phys.alloc_frame phys in
  Pagetable.map pt ~va:0x80001000 ~pfn;
  check Alcotest.(option int) "mapped" (Some ((pfn * page) + 0x123))
    (Pagetable.translate pt (0x80001000 + 0x123));
  check Alcotest.(option int) "unmapped" None (Pagetable.translate pt 0x80002000)

let test_pagetable_unmap () =
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  let pfn = Phys.alloc_frame phys in
  Pagetable.map pt ~va:0xF8000000 ~pfn;
  Pagetable.unmap pt ~va:0xF8000000;
  check Alcotest.(option int) "unmapped after" None
    (Pagetable.translate pt 0xF8000000);
  (* Unmapping a never-mapped address is a no-op. *)
  Pagetable.unmap pt ~va:0x10000000

let test_pagetable_walk_matches () =
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  let pfn = Phys.alloc_frame phys in
  Pagetable.map pt ~va:0x80400000 ~pfn;
  check
    Alcotest.(option int)
    "external walk agrees with translate"
    (Pagetable.translate pt 0x80400004)
    (Pagetable.walk phys ~cr3:(Pagetable.cr3 pt) 0x80400004)

let test_pagetable_tables_in_guest_memory () =
  (* The PDE written for a mapping must be readable as raw guest physical
     memory: bit 0 set, frame bits pointing at an allocated frame. *)
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  let pfn = Phys.alloc_frame phys in
  let va = 0xC0000000 in
  Pagetable.map pt ~va ~pfn;
  let pde_idx = va lsr 22 in
  let pde = Phys.read_u32 phys (Pagetable.cr3 pt + (pde_idx * 4)) in
  Alcotest.(check bool) "PDE present bit" true (Int32.logand pde 1l = 1l);
  let table_pfn = Int32.to_int (Int32.shift_right_logical pde 12) land 0xFFFFF in
  Alcotest.(check bool) "PT frame allocated" true (Phys.frame_exists phys table_pfn)

let test_pagetable_unaligned_rejected () =
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  Alcotest.check_raises "unaligned map"
    (Invalid_argument "Pagetable.map: unaligned va") (fun () ->
      Pagetable.map pt ~va:0x1234 ~pfn:1)

let test_pagetable_shared_pt_frame () =
  (* Two pages in the same 4 MiB region share one page-table frame. *)
  let phys = Phys.create () in
  let pt = Pagetable.create phys in
  let before = Phys.frames_allocated phys in
  Pagetable.map pt ~va:0x80000000 ~pfn:(Phys.alloc_frame phys);
  Pagetable.map pt ~va:0x80001000 ~pfn:(Phys.alloc_frame phys);
  (* 2 data frames + 1 page-table frame. *)
  check Alcotest.int "frames used" (before + 3) (Phys.frames_allocated phys)

(* --- Addr_space ---------------------------------------------------------- *)

let test_aspace_rw () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  As.map_range aspace ~va:0x80000000 ~size:(3 * page);
  let src = Bytes.of_string (String.make 6000 'M') in
  As.write aspace (0x80000000 + 100) src 0 6000;
  let dst = As.read_bytes aspace (0x80000000 + 100) 6000 in
  check Alcotest.string "cross-page roundtrip" (Bytes.to_string src)
    (Bytes.to_string dst)

let test_aspace_page_fault () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  Alcotest.check_raises "fault on unmapped" (As.Page_fault 0x90000000)
    (fun () -> ignore (As.read_bytes aspace 0x90000000 4))

let test_aspace_map_range_idempotent () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  As.map_range aspace ~va:0x80000000 ~size:page;
  As.write_u32 aspace 0x80000000 0x1234l;
  (* Remapping an already-mapped page must not lose its contents. *)
  As.map_range aspace ~va:0x80000000 ~size:(2 * page);
  check Alcotest.int32 "content preserved" 0x1234l (As.read_u32 aspace 0x80000000)

let test_aspace_accessors () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  As.map_range aspace ~va:0xF8000000 ~size:page;
  As.write_u32_int aspace 0xF8000000 0xF8CC2000;
  check Alcotest.int "u32 int" 0xF8CC2000 (As.read_u32_int aspace 0xF8000000);
  check Alcotest.int "u16" 0x2000 (As.read_u16 aspace 0xF8000000);
  Alcotest.(check bool) "is_mapped" true (As.is_mapped aspace 0xF8000000);
  Alcotest.(check bool) "not mapped" false (As.is_mapped aspace 0xF9000000)

let test_aspace_cr3_page_aligned () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  check Alcotest.int "cr3 aligned" 0 (As.cr3 aspace mod page)

let test_aspace_translate_matches_guest_walk () =
  let phys = Phys.create () in
  let aspace = As.create phys in
  As.map_range aspace ~va:0x80000000 ~size:page;
  check
    Alcotest.(option int)
    "walk from cr3 agrees"
    (As.translate aspace 0x80000010)
    (Pagetable.walk phys ~cr3:(As.cr3 aspace) 0x80000010)

let () =
  Alcotest.run "memsim"
    [
      ( "phys",
        [
          Alcotest.test_case "alloc" `Quick test_phys_alloc;
          Alcotest.test_case "rw roundtrip" `Quick test_phys_rw_roundtrip;
          Alcotest.test_case "cross frame" `Quick test_phys_cross_frame;
          Alcotest.test_case "versions" `Quick test_phys_versions;
          Alcotest.test_case "log-dirty" `Quick test_phys_log_dirty;
          Alcotest.test_case "uid" `Quick test_phys_uid_fresh_on_copy;
          Alcotest.test_case "unallocated read" `Quick
            test_phys_unallocated_reads_zero;
          Alcotest.test_case "unallocated write" `Quick
            test_phys_unallocated_write_raises;
          Alcotest.test_case "u32" `Quick test_phys_u32;
          Alcotest.test_case "exhaustion" `Quick test_phys_exhaustion;
          Alcotest.test_case "read_page" `Quick test_read_page;
          Alcotest.test_case "write traps" `Quick test_watch_traps;
          Alcotest.test_case "watches not copied" `Quick test_watch_not_copied;
        ] );
      ( "pagetable",
        [
          Alcotest.test_case "map/translate" `Quick test_pagetable_map_translate;
          Alcotest.test_case "unmap" `Quick test_pagetable_unmap;
          Alcotest.test_case "walk" `Quick test_pagetable_walk_matches;
          Alcotest.test_case "in guest memory" `Quick
            test_pagetable_tables_in_guest_memory;
          Alcotest.test_case "unaligned" `Quick test_pagetable_unaligned_rejected;
          Alcotest.test_case "shared PT frame" `Quick
            test_pagetable_shared_pt_frame;
        ] );
      ( "addr_space",
        [
          Alcotest.test_case "rw" `Quick test_aspace_rw;
          Alcotest.test_case "page fault" `Quick test_aspace_page_fault;
          Alcotest.test_case "idempotent map" `Quick
            test_aspace_map_range_idempotent;
          Alcotest.test_case "accessors" `Quick test_aspace_accessors;
          Alcotest.test_case "cr3 aligned" `Quick test_aspace_cr3_page_aligned;
          Alcotest.test_case "translate matches walk" `Quick
            test_aspace_translate_matches_guest_walk;
        ] );
    ]
