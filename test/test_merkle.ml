(* Merkle section hashing: the O(dirty) fingerprint hot path. The
   contract under test: trees change the price of a sweep, never its
   verdicts — root equality is digest equality, a k-dirty refresh equals
   a from-scratch build, and descent localizes exactly the deviant
   pages. Plus the digest-cache probe/store race regression. *)

module Cloud = Mc_hypervisor.Cloud
module Xenctl = Mc_hypervisor.Xenctl
module Meter = Mc_hypervisor.Meter
module Md5 = Mc_md5.Md5
module Merkle = Mc_md5.Merkle
module Orchestrator = Modchecker.Orchestrator
module Checker = Modchecker.Checker
module Digest_cache = Modchecker.Digest_cache
module Pinpoint = Modchecker.Pinpoint
module Report = Modchecker.Report
module Infect = Mc_malware.Infect
module Registry = Mc_telemetry.Registry
module Rng = Mc_util.Rng

let check = Alcotest.check

let expect_ok = function Ok v -> v | Error e -> failwith e

(* A small page size keeps the qcheck buffers cheap while exercising
   multi-level trees. *)
let page = 64

let buffer_gen =
  QCheck.Gen.(
    let* n = int_range 0 (page * 9) in
    let* b = bytes_size (return n) in
    return b)

(* --- properties ----------------------------------------------------------- *)

let prop_root_equality =
  QCheck.Test.make ~count:300 ~name:"root equality iff buffer equality"
    (QCheck.make
       QCheck.Gen.(
         let* a = buffer_gen in
         let* mutate = bool in
         let* off = int_bound (max 0 (Bytes.length a - 1)) in
         return (a, mutate, off)))
    (fun (a, mutate, off) ->
      let b = Bytes.copy a in
      if mutate && Bytes.length b > 0 then
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
      Merkle.equal_root (Merkle.of_bytes ~page a) (Merkle.of_bytes ~page b)
      = (a = b))

let prop_rehash_equals_scratch =
  QCheck.Test.make ~count:300 ~name:"k-dirty rehash = from-scratch root"
    (QCheck.make
       QCheck.Gen.(
         let* a = buffer_gen in
         let leaves = Array.length (Merkle.leaf_bounds ~page (Bytes.length a)) in
         let* dirty = list_size (int_bound 6) (int_bound (leaves - 1)) in
         let* flips = list_repeat (List.length dirty) (int_bound (page - 1)) in
         return (a, dirty, flips)))
    (fun (a, dirty, flips) ->
      let t0 = Merkle.of_bytes ~page a in
      let b = Bytes.copy a in
      let bounds = Merkle.leaf_bounds ~page (Bytes.length b) in
      (* Flip one byte inside each dirty leaf (when it has bytes). *)
      List.iter2
        (fun leaf flip ->
          let off, len = bounds.(leaf) in
          if len > 0 then
            let i = off + (flip mod len) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1)))
        dirty flips;
      let t1, _ = Merkle.rehash t0 b ~dirty in
      Merkle.equal_root t1 (Merkle.of_bytes ~page b))

let prop_descent_localizes =
  QCheck.Test.make ~count:300 ~name:"descent finds the byte-survey's pages"
    (QCheck.make
       QCheck.Gen.(
         let* a = buffer_gen in
         let* muts =
           list_size (int_bound 8) (int_bound (max 0 (Bytes.length a - 1)))
         in
         return (a, muts)))
    (fun (a, muts) ->
      let b = Bytes.copy a in
      List.iter
        (fun off ->
          if Bytes.length b > 0 then
            Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1)))
        muts;
      let deviant, _ =
        Merkle.diverging_leaves (Merkle.of_bytes ~page a)
          (Merkle.of_bytes ~page b)
      in
      (* The ground truth: the pages holding the byte-level diffs. *)
      let expected =
        Pinpoint.diff_offsets a b
        |> List.map (fun off -> off / page)
        |> List.sort_uniq compare
      in
      deviant = expected)

let prop_chunked_md5 =
  QCheck.Test.make ~count:300 ~name:"chunked update at random splits"
    (QCheck.make
       QCheck.Gen.(
         let* s = string_size (int_bound 600) in
         let* cuts =
           list_size (int_bound 8) (int_bound (max 0 (String.length s)))
         in
         return (s, cuts)))
    (fun (s, cuts) ->
      let cuts = List.sort_uniq compare (0 :: String.length s :: cuts) in
      let rec pieces = function
        | a :: (b :: _ as rest) -> String.sub s a (b - a) :: pieces rest
        | _ -> []
      in
      Md5.digest_string (String.concat "" (pieces cuts)) = Md5.digest_string s)

(* --- class-escalation gate: print-equal copies match under compare_pair - *)

(* An incremental survey that escalates byte-compares one copy per
   Merkle-print class. Two members of one class are reported as matching
   without a comparison, which is exact only if (a) two print-equal
   copies match under [compare_pair]; a pair across classes is looked up
   in either order, which needs [all_match] to be symmetric. The pools
   mix load bases with infections replayed identically on random VM
   subsets, so deviant classes with several members (at different bases)
   occur. A third property, that a print-equal copy can stand in for
   another on either side of [compare_pair], does not hold: Algorithm 2
   can reconcile a real difference by coincidence for one pair of load
   bases and not for another ("coincidental match" below), so the
   escalation also checks the member pairs across the groups its
   representatives leave apart. *)

let artifacts_of_vm cloud vm name =
  let dom = Cloud.vm cloud vm in
  let vmi =
    Mc_vmi.Vmi.init dom
      (Mc_vmi.Symbols.of_variant
         (Mc_winkernel.Kernel.os_variant (Mc_hypervisor.Dom.kernel_exn dom)))
  in
  match Modchecker.Searcher.fetch vmi ~name with
  | None -> None
  | Some (info, buf) -> (
      match Modchecker.Parser.artifacts buf with
      | Ok arts -> Some (info.Modchecker.Searcher.mi_base, arts)
      | Error _ -> None)

let hal_functions =
  lazy
    (Array.of_list
       (List.map fst (Mc_pe.Catalog.symbols (Mc_pe.Catalog.image "hal.dll"))))

(* One to four infections, each replayed on a random subset of the pool:
   an inline hook, an opcode patch or a pointer hook of hal.dll, or one
   byte written at the same image offset of hal.dll or disk.sys. *)
let infect_subsets cloud rng =
  let vms = Cloud.vm_count cloud in
  for _ = 1 to 1 + Rng.int rng 4 do
    let victims = List.filter (fun _ -> Rng.bool rng) (List.init vms Fun.id) in
    let func = Rng.pick rng (Lazy.force hal_functions) in
    let m = if Rng.bool rng then "hal.dll" else "disk.sys" in
    let frac = Rng.float rng 1.0 and byte = Char.chr (Rng.int rng 256) in
    let apply =
      match Rng.int rng 4 with
      | 0 -> fun vm -> ignore (Infect.inline_hook ~func cloud ~vm)
      | 1 -> fun vm -> ignore (Infect.single_opcode_replacement ~func cloud ~vm)
      | 2 -> fun vm -> ignore (Infect.pointer_hook cloud ~vm)
      | _ ->
          fun vm ->
            ignore
              (Guest_write.poke cloud ~vm ~module_name:m
                 ~at:(Guest_write.fraction frac) byte)
    in
    List.iter apply victims
  done

let prop_equal_prints_match =
  QCheck.Test.make ~count:12
    ~name:"equal prints match under compare_pair"
    QCheck.(triple (int_bound 100000) (int_range 4 8) (int_bound 100000))
    (fun (seed, vms, wseed) ->
      let cloud = Cloud.create ~vms ~seed:(Int64.of_int seed) () in
      infect_subsets cloud (Rng.create (Int64.of_int wseed));
      let inc = Orchestrator.create_incremental () in
      let config = Orchestrator.Config.(with_incremental inc default) in
      List.for_all
        (fun module_name ->
          ignore (Orchestrator.survey ~config cloud ~module_name);
          let copies =
            List.filter_map
              (fun vm ->
                match
                  ( Orchestrator.merkle_root inc cloud ~vm ~module_name,
                    artifacts_of_vm cloud vm module_name )
                with
                | Some root, Some (base, arts) -> Some (root, base, arts)
                | _ -> None)
              (List.init vms Fun.id)
            |> Array.of_list
          in
          let n = Array.length copies in
          let matches =
            Array.init n (fun i ->
                Array.init n (fun j ->
                    let _, b1, a1 = copies.(i) and _, b2, a2 = copies.(j) in
                    (Checker.compare_pair ~base1:b1 a1 ~base2:b2 a2)
                      .Checker.all_match))
          in
          let root i = let r, _, _ = copies.(i) in r in
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if matches.(i).(j) <> matches.(j).(i) then ok := false;
              if root i = root j && not matches.(i).(j) then ok := false
            done
          done;
          !ok)
        [ "hal.dll"; "disk.sys" ])

(* The escalation rules a member pair out from its classes'
   representatives alone; it must never rule out a pair that
   [compare_pair] matches. Each case rebuilds a member [x] of class [a]
   at its own base, plants in a member [y] of another class a window
   exactly the base difference away from [x]'s (inside, across or beside
   a reloc slot) plus random flips, and derives [y]'s representative [b]
   at a third base. *)
let prop_cross_class_filter_sound =
  let base =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> 0x80000000 + (k * 0x10000)) (int_bound 0xFFF);
          map (fun k -> 0x80000000 + (k * 0x1000)) (int_bound 0xFFFF);
          int_bound 0xFFFFFFFF;
        ])
  in
  let gen =
    QCheck.Gen.(
      let* len = int_range 8 40 in
      let* seed = int in
      let* offs = list_size (int_bound 6) (int_bound (len - 4)) in
      let* ba = base and* bb = base and* bx = base and* by = base in
      let* plant = opt (int_bound (len - 4)) in
      let* flips =
        list_size (int_bound 2) (pair (int_bound (len - 1)) (int_range 1 255))
      in
      return (len, seed, offs, (ba, bb, bx, by), plant, flips))
  in
  QCheck.Test.make ~count:3000 ~name:"cross-class filter never rules out a match"
    (QCheck.make gen)
    (fun (len, seed, offs, (ba, bb, bx, by), plant, flips) ->
      let sec_rva = 0x1000 in
      let slots =
        List.fold_left
          (fun acc off ->
            if List.exists (fun o -> abs (o - off) < 4) acc then acc
            else off :: acc)
          [] offs
      in
      let table =
        Modchecker.Rva.slots_of_relocs ~section_rva:sec_rva ~len
          (List.map (fun off -> sec_rva + off) slots)
      in
      (* Strip [from], then add [to_]: the same print at another base. *)
      let rebase d ~from ~to_ =
        let d = Bytes.copy d in
        Modchecker.Rva.canonical ~slots:table ~base:from d;
        Modchecker.Rva.canonical ~slots:table ~base:(-to_) d;
        d
      in
      let a = Rng.bytes (Rng.create (Int64.of_int seed)) len in
      let x = rebase a ~from:ba ~to_:bx in
      let y = rebase a ~from:ba ~to_:by in
      Option.iter
        (fun s ->
          let w = Mc_util.Le.get_u32_int x s in
          Mc_util.Le.set_u32_int y s ((w - bx + by) land 0xFFFFFFFF))
        plant;
      List.iter
        (fun (q, m) ->
          Bytes.set y q (Char.chr (Char.code (Bytes.get y q) lxor m)))
        flips;
      let b = rebase y ~from:by ~to_:bb in
      let arts data =
        [ { Modchecker.Artifact.kind = Section_data ".text"; data; sec_rva } ]
      in
      let matched =
        (Checker.compare_pair ~base1:bx (arts x) ~base2:by (arts y))
          .Checker.all_match
      in
      let side base d = Checker.prepare ~slots:(fun _ -> Some table) ~base (arts d) in
      (not matched)
      || Orchestrator.may_match_across ~diverging:(fun _ -> None) (side ba a)
           (side bb b) ~bx ~by)

(* --- checker-level units -------------------------------------------------- *)

let test_rehash_meters_dirty_only () =
  let data = Bytes.make (32 * Merkle.default_page_size) 'x' in
  let t = Checker.merkle_of_bytes data in
  Bytes.set data 0 'y';
  let m = Meter.create () in
  Meter.set_phase m Meter.Checker;
  let t' = Checker.merkle_rehash ~meter:m t data ~dirty:[ 0 ] in
  let c = Meter.get m Meter.Checker in
  check Alcotest.int "one page hashed" Merkle.default_page_size
    c.Meter.bytes_hashed;
  check Alcotest.bool "interior metered" true (c.Meter.merkle_nodes > 0);
  check Alcotest.bool "root moved" false (Merkle.equal_root t t')

(* --- digest-cache probe/store race (regression) --------------------------- *)

(* The fixed TOCTOU: [probe] finds a stale entry, drops the lock to run
   the staleness hypercall, and must then remove only the {e identical}
   entry — a racing fresh [store] for the same key must survive. The
   pre-fix code removed by key and lost such stores. *)
let test_probe_store_race () =
  let cloud = Cloud.create ~vms:1 ~seed:46L () in
  let d = Cloud.vm cloud 0 in
  let origin = Digest_cache.origin d in
  let dc : int Digest_cache.t = Digest_cache.create () in
  (* A huge footprint whose only wrong version is the last stretches the
     out-of-lock staleness scan to a wide window, so the racing store lands inside it — between the
     probe's find and its drop — on most iterations. *)
  let stale_footprint =
    Array.init 200_000 (fun i ->
        if i = 199_999 then (i, -1) else (i, Xenctl.page_version d i))
  in
  let lost = ref 0 in
  for _ = 1 to 50 do
    (* A stale entry from the previous sweep... *)
    Digest_cache.store dc ~vm:0 ~key:"k" ~origin ~footprint:stale_footprint 1;
    let barrier = Atomic.make 0 in
    let prober =
      Domain.spawn (fun () ->
          Atomic.incr barrier;
          while Atomic.get barrier < 2 do
            Domain.cpu_relax ()
          done;
          ignore (Digest_cache.probe dc d ~vm:0 ~key:"k"))
    in
    (* ...while this domain finishes a recompute and stores fresh. *)
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.0002;
    Digest_cache.store dc ~vm:0 ~key:"k" ~origin ~footprint:[||] 2;
    Domain.join prober;
    (match Digest_cache.probe dc d ~vm:0 ~key:"k" with
    | Some 2 -> ()
    | Some _ | None -> incr lost)
  done;
  check Alcotest.int "fresh stores lost to racing stale probes" 0 !lost

(* --- survey parity: incremental (Merkle) and full agree on every scenario - *)

let scenarios =
  [
    ("opcode", "hal.dll", fun c -> Infect.single_opcode_replacement c ~vm:1);
    ("hook", "hal.dll", fun c -> Infect.inline_hook c ~vm:1);
    ("stub", "hello.sys", fun c -> Infect.stub_modification c ~vm:1);
    ("dll-inject", "dummy.sys", fun c -> Infect.dll_injection c ~vm:1);
    ("ptr", "hal.dll", fun c -> Infect.pointer_hook c ~vm:1);
    ( "hide",
      "http.sys",
      fun c -> Infect.hide_module c ~vm:1 ~module_name:"http.sys" );
  ]

let merkle_config () =
  Orchestrator.Config.(
    default |> with_incremental (Orchestrator.create_incremental ()))

(* Run one scenario twice — plain and merkle — on identically seeded
   clouds. The merkle run sweeps clean first so the post-infection sweep
   exercises the refresh + escalation path, not a cold build. *)
let survey_pair ~name ~module_name infect =
  let plain =
    let cloud = Cloud.create ~vms:5 ~seed:46L () in
    ignore (expect_ok (infect cloud));
    Orchestrator.survey cloud ~module_name
  in
  let merkle =
    let cloud = Cloud.create ~vms:5 ~seed:46L () in
    let config = merkle_config () in
    ignore (Orchestrator.survey ~config cloud ~module_name);
    ignore (expect_ok (infect cloud));
    Orchestrator.survey ~config cloud ~module_name
  in
  check Alcotest.string
    (name ^ ": verdict parity")
    (Report.verdict_key plain.Report.s_verdict)
    (Report.verdict_key merkle.Report.s_verdict);
  check
    Alcotest.(list int)
    (name ^ ": deviant parity")
    plain.Report.deviant_vms merkle.Report.deviant_vms;
  check
    Alcotest.(list int)
    (name ^ ": missing parity")
    plain.Report.missing_on merkle.Report.missing_on

let test_scenario_parity () =
  List.iter
    (fun (name, module_name, infect) -> survey_pair ~name ~module_name infect)
    scenarios

let test_clean_parity () =
  let survey config =
    let cloud = Cloud.create ~vms:5 ~seed:46L () in
    Orchestrator.survey ~config cloud ~module_name:"hal.dll"
  in
  let plain = survey Orchestrator.Config.default in
  let merkle = survey (merkle_config ()) in
  check Alcotest.string "clean verdict parity"
    (Report.verdict_key plain.Report.s_verdict)
    (Report.verdict_key merkle.Report.s_verdict);
  check Alcotest.(list int) "nobody flagged" [] merkle.Report.deviant_vms

(* --- O(dirty) partial refresh --------------------------------------------- *)

let counter name =
  Mc_telemetry.Metric.counter_value (Registry.counter name)

let test_benign_touch_partial_refresh () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled false)
    (fun () ->
      let cloud = Cloud.create ~vms:4 ~seed:46L () in
      let config = merkle_config () in
      ignore (Orchestrator.survey ~config cloud ~module_name:"hal.dll");
      let touched =
        expect_ok (Infect.benign_touch ~module_name:"hal.dll" ~pages:2 cloud ~vm:0)
      in
      check Alcotest.int "two pages touched" 2 (List.length touched);
      let leaves0 = counter "merkle.leaves_rehashed" in
      let rebuilds0 = counter "merkle.full_rebuilds" in
      let esc0 = counter "survey.incremental_escalations" in
      let s = Orchestrator.survey ~config cloud ~module_name:"hal.dll" in
      check Alcotest.(list int) "still clean" [] s.Report.deviant_vms;
      let leaves = counter "merkle.leaves_rehashed" - leaves0 in
      check Alcotest.bool "refreshed some leaves" true (leaves > 0);
      (* Each touched frame can straddle at most two leaves (the reloc
         margin reaches into neighbours), and only Dom1 was dirty. *)
      check Alcotest.bool
        (Printf.sprintf "refreshed O(dirty) leaves (got %d)" leaves)
        true
        (leaves <= 2 * List.length touched + 2);
      check Alcotest.int "no full rebuild" rebuilds0
        (counter "merkle.full_rebuilds");
      check Alcotest.int "no escalation" esc0
        (counter "survey.incremental_escalations"))

let test_infection_escalates_with_descent () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled false)
    (fun () ->
      let cloud = Cloud.create ~vms:4 ~seed:46L () in
      let config = merkle_config () in
      ignore (Orchestrator.survey ~config cloud ~module_name:"hal.dll");
      ignore (expect_ok (Infect.inline_hook cloud ~vm:1));
      let s = Orchestrator.survey ~config cloud ~module_name:"hal.dll" in
      check Alcotest.(list int) "hook flagged" [ 1 ] s.Report.deviant_vms;
      check Alcotest.bool "descent ran" true (counter "merkle.descents" > 0);
      check Alcotest.bool "deviant pages localized" true
        (counter "merkle.deviant_pages" > 0);
      check Alcotest.bool "then escalated to the byte-level survey" true
        (counter "survey.incremental_escalations" > 0);
      (* The clean class and the hooked copy: one representative each. *)
      check Alcotest.int "two representatives fetched" 2
        (counter "survey.escalation_reps");
      check Alcotest.int "no member pair left in doubt" 0
        (counter "survey.escalation_member_pairs"))

(* --- class escalation ----------------------------------------------------- *)

(* Identically-patched copies at different load bases print apart (the
   shifted code defeats the golden reloc offsets) yet match byte for
   byte: the representatives' comparison must still join them. *)
let test_identical_pair_joined () =
  let cloud = Cloud.create ~vms:3 ~cores:4 ~seed:2859845042692598870L () in
  let config = merkle_config () in
  ignore (Orchestrator.survey ~config cloud ~module_name:"hal.dll");
  List.iter
    (fun vm ->
      ignore
        (expect_ok
           (Infect.single_opcode_replacement ~module_name:"hal.dll"
              ~func:"devex_937" cloud ~vm)))
    [ 2; 1 ];
  let full = Orchestrator.survey cloud ~module_name:"hal.dll" in
  let incr = Orchestrator.survey ~config cloud ~module_name:"hal.dll" in
  check Alcotest.(list int) "full flags the clean minority" [ 0 ]
    full.Report.deviant_vms;
  let json s = Mc_util.Json.to_string (Report.survey_to_json s) in
  check Alcotest.string "whole report equal" (json full) (json incr)

(* A representative that cannot be fetched cannot speak for its class:
   with every page paged out after both prints were cached, the survey
   falls back to the full one and degrades exactly like it. *)
let test_unfetchable_rep_falls_back () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled false)
    (fun () ->
      let cloud = Cloud.create ~vms:4 ~seed:46L () in
      let config = merkle_config () in
      ignore (Orchestrator.survey ~config cloud ~module_name:"hal.dll");
      ignore (expect_ok (Infect.inline_hook cloud ~vm:1));
      let cached = Orchestrator.survey ~config cloud ~module_name:"hal.dll" in
      check Alcotest.(list int) "hook flagged" [ 1 ] cached.Report.deviant_vms;
      let spec =
        match Mc_memsim.Faultplan.of_string "paged=1.0,seed=3" with
        | Ok spec -> spec
        | Error e -> Alcotest.fail e
      in
      Cloud.set_fault_spec cloud (Some spec);
      let esc0 = counter "survey.incremental_escalations" in
      let incr = Orchestrator.survey ~config cloud ~module_name:"hal.dll" in
      let full = Orchestrator.survey cloud ~module_name:"hal.dll" in
      check Alcotest.int "escalated once" (esc0 + 1)
        (counter "survey.incremental_escalations");
      check Alcotest.string "degraded like the full survey"
        (Report.verdict_key full.Report.s_verdict)
        (Report.verdict_key incr.Report.s_verdict);
      check Alcotest.bool "degraded" true
        (match incr.Report.s_verdict with
        | Report.Degraded _ -> true
        | Report.Intact | Report.Infected -> false))

(* A representative's result is not always its members'. On this pool a
   one-byte opcode change in Dom4's disk.sys (0xa1 -> 0x8b at image
   offset 0x5ef5, just before a reloc slot) differs from Dom5's copy by
   exactly their load-base difference (-0x160000 in the window Algorithm
   2 reads), so Algorithm 2 takes the window for an address, rewrites it,
   and that one pair matches; against every other copy, the majority's
   representative Dom1 included, it does not. The full survey joins Dom4
   to the majority through that pair and reports the pool intact. The
   class escalation must find the same pair among the members. *)
let test_coincidental_match () =
  let cloud = Cloud.create ~vms:6 ~seed:28L () in
  let config = merkle_config () in
  ignore (Orchestrator.survey ~config cloud ~module_name:"disk.sys");
  check Alcotest.bool "disk.sys loaded" true
    (Guest_write.poke cloud ~vm:3 ~module_name:"disk.sys"
       ~at:(fun _ -> 0x5ef5)
       '\x8b');
  let full = Orchestrator.survey cloud ~module_name:"disk.sys" in
  let incr = Orchestrator.survey ~config cloud ~module_name:"disk.sys" in
  check Alcotest.bool "(Dom1, Dom4) differ" false
    (List.assoc (0, 3) full.Report.pairwise_matches);
  check Alcotest.bool "(Dom4, Dom5) match by coincidence" true
    (List.assoc (3, 4) full.Report.pairwise_matches);
  check Alcotest.(list int) "full: nobody flagged" [] full.Report.deviant_vms;
  let json s = Mc_util.Json.to_string (Report.survey_to_json s) in
  check Alcotest.string "whole report equal" (json full) (json incr)

let () =
  Alcotest.run "merkle"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_root_equality;
            prop_rehash_equals_scratch;
            prop_descent_localizes;
            prop_chunked_md5;
            prop_equal_prints_match;
            prop_cross_class_filter_sound;
          ] );
      ( "checker",
        [
          Alcotest.test_case "rehash meters dirty only" `Quick
            test_rehash_meters_dirty_only;
        ] );
      ( "digest-cache race",
        [ Alcotest.test_case "probe/store race" `Quick test_probe_store_race ] );
      ( "parity",
        [
          Alcotest.test_case "six scenarios" `Quick test_scenario_parity;
          Alcotest.test_case "clean pool" `Quick test_clean_parity;
        ] );
      ( "o(dirty)",
        [
          Alcotest.test_case "benign touch refreshes leaves" `Quick
            test_benign_touch_partial_refresh;
          Alcotest.test_case "infection escalates via descent" `Quick
            test_infection_escalates_with_descent;
        ] );
      ( "class escalation",
        [
          Alcotest.test_case "identical pair joined" `Quick
            test_identical_pair_joined;
          Alcotest.test_case "unfetchable representative falls back" `Quick
            test_unfetchable_rep_falls_back;
          Alcotest.test_case "coincidental match" `Quick
            test_coincidental_match;
        ] );
    ]
