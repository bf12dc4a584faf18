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

(* --- checker-level units -------------------------------------------------- *)

let test_parallel_leaves_agree () =
  (* Domain-parallel leaf hashing must produce the sequential tree; the
     buffer must clear the 16-leaf fan-out threshold. *)
  let data = Bytes.init (40 * Merkle.default_page_size) (fun i -> Char.chr (i land 0xff)) in
  Mc_parallel.Pool.with_pool 4 (fun pool ->
      check Alcotest.bool "same root" true
        (Merkle.equal_root
           (Checker.merkle_of_bytes ~pool data)
           (Checker.merkle_of_bytes data)))

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
  let epoch = Xenctl.memory_epoch d in
  let dc : int Digest_cache.t = Digest_cache.create () in
  (* A huge footprint whose only wrong version is the last stretches the
     out-of-lock staleness scan (it short-circuits on a mismatch) to a
     wide window, so the racing store lands inside it — between the
     probe's find and its drop — on most iterations. *)
  let stale_footprint =
    Array.init 200_000 (fun i ->
        if i = 199_999 then (i, -1) else (i, Xenctl.page_version d i))
  in
  let lost = ref 0 in
  for _ = 1 to 50 do
    (* A stale entry from the previous sweep... *)
    Digest_cache.store dc ~vm:0 ~key:"k" ~epoch ~footprint:stale_footprint 1;
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
    Digest_cache.store dc ~vm:0 ~key:"k" ~epoch ~footprint:[||] 2;
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
        (counter "survey.incremental_escalations" > 0))

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
          ] );
      ( "checker",
        [
          Alcotest.test_case "parallel leaves agree" `Quick
            test_parallel_leaves_agree;
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
    ]
