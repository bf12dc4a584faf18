(* Mc_engine: the long-lived sharded checking service. The contract under
   test: the engine changes who does the work and what it costs — never
   what is decided. Plus the service-level guarantees: coalescing,
   backpressure, and drain settling every admitted deferred. *)

module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Costs = Mc_hypervisor.Costs
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Artifact = Modchecker.Artifact
module Infect = Mc_malware.Infect
module Engine = Mc_engine
module Wire = Mc_engine.Wire
module Serve = Mc_engine.Serve
module Exit_code = Modchecker.Exit_code
module Deferred = Mc_parallel.Deferred

let check = Alcotest.check

let expect_ok = function Ok _ -> () | Error e -> failwith e

let ok_cell = function
  | Ok c -> c
  | Error r -> Alcotest.fail (Engine.rejection_message r)

let verdict_key = function
  | Report.Intact -> "intact"
  | Report.Infected -> "infected"
  | Report.Degraded _ -> "degraded"

(* --- verdict parity: engine vs standalone, all six scenarios -------------- *)

(* Same cloud, same question: the standalone one-shot answer and the
   engine's answer must agree artifact-for-artifact. Checks don't mutate
   cloud state, so running both against one cloud is an exact A/B. *)
let check_parity ~seed ~infect ~module_name () =
  let cloud = Cloud.create ~vms:5 ~seed () in
  expect_ok (infect cloud);
  let standalone =
    match Orchestrator.check_module cloud ~target_vm:1 ~module_name with
    | Ok o -> o.Orchestrator.report
    | Error e -> Alcotest.fail e
  in
  let engine = Engine.create ~shards:2 cloud in
  let r = Engine.run engine (Engine.Check { vm = 1; module_name }) in
  Engine.drain engine;
  match r.Engine.r_outcome with
  | Engine.Checked (Ok o) ->
      let er = o.Orchestrator.report in
      check Alcotest.string "verdict"
        (verdict_key standalone.Report.verdict)
        (verdict_key er.Report.verdict);
      check
        Alcotest.(list string)
        "flagged artifacts"
        (List.map Artifact.kind_name standalone.Report.flagged_artifacts)
        (List.map Artifact.kind_name er.Report.flagged_artifacts);
      check Alcotest.int "matches" standalone.Report.matches er.Report.matches;
      check Alcotest.int "total" standalone.Report.total er.Report.total
  | Engine.Checked (Error e) -> Alcotest.fail ("engine check errored: " ^ e)
  | _ -> Alcotest.fail "engine returned a non-check outcome"

let test_parity_e1_opcode () =
  check_parity ~seed:921L
    ~infect:(fun c -> Infect.single_opcode_replacement c ~vm:1)
    ~module_name:"hal.dll" ()

let test_parity_e2_hook () =
  check_parity ~seed:922L
    ~infect:(fun c -> Infect.inline_hook c ~vm:1)
    ~module_name:"hal.dll" ()

let test_parity_e3_stub () =
  check_parity ~seed:923L
    ~infect:(fun c -> Infect.stub_modification c ~vm:1)
    ~module_name:"hello.sys" ()

let test_parity_e4_injection () =
  check_parity ~seed:924L
    ~infect:(fun c -> Infect.dll_injection c ~vm:1)
    ~module_name:"dummy.sys" ()

let test_parity_ext_pointer_hook () =
  check_parity ~seed:925L
    ~infect:(fun c -> Infect.pointer_hook c ~vm:1)
    ~module_name:"hal.dll" ()

(* Scenario six: a DKOM-hidden module betrays itself through the list
   comparison — as a Lists request it must find the same discrepancy. *)
let test_parity_ext_dkom_lists () =
  let cloud = Cloud.create ~vms:5 ~seed:926L () in
  expect_ok (Infect.hide_module cloud ~vm:2 ~module_name:"tcpip.sys");
  let standalone = Orchestrator.survey_module_lists cloud in
  let engine = Engine.create cloud in
  let r = Engine.run engine Engine.Lists in
  Engine.drain engine;
  match r.Engine.r_outcome with
  | Engine.Listed lc ->
      let names (c : Orchestrator.list_comparison) =
        List.map
          (fun d -> d.Orchestrator.ld_module)
          c.Orchestrator.lc_discrepancies
      in
      check Alcotest.(list string) "discrepant modules" (names standalone)
        (names lc);
      check Alcotest.bool "hidden module found" true
        (List.mem "tcpip.sys" (names lc));
      let missing (c : Orchestrator.list_comparison) =
        List.concat_map
          (fun d -> d.Orchestrator.missing_on)
          c.Orchestrator.lc_discrepancies
      in
      check Alcotest.(list int) "missing-on sets" (missing standalone)
        (missing lc)
  | _ -> Alcotest.fail "engine returned a non-lists outcome"

(* And survey parity on an infected pool: same deviants, same verdict. *)
let test_parity_survey () =
  let cloud = Cloud.create ~vms:6 ~seed:927L () in
  expect_ok (Infect.inline_hook cloud ~vm:3);
  let standalone = Orchestrator.survey cloud ~module_name:"hal.dll" in
  let engine = Engine.create cloud in
  let r = Engine.run engine (Engine.Survey { module_name = "hal.dll" }) in
  Engine.drain engine;
  match r.Engine.r_outcome with
  | Engine.Surveyed s ->
      check Alcotest.(list int) "deviants" standalone.Report.deviant_vms
        s.Report.deviant_vms;
      check Alcotest.(list int) "missing" standalone.Report.missing_on
        s.Report.missing_on;
      check Alcotest.string "verdict"
        (verdict_key standalone.Report.s_verdict)
        (verdict_key s.Report.s_verdict)
  | _ -> Alcotest.fail "engine returned a non-survey outcome"

(* --- coalescing ----------------------------------------------------------- *)

(* One shard services sequentially, so a duplicate submitted behind a
   long blocker is deterministically still queued — it must join the
   first submission's deferred, not run again. *)
let test_coalesce_duplicates () =
  let cloud = Cloud.create ~vms:6 ~seed:930L () in
  let engine = Engine.create ~shards:1 cloud in
  let blocker =
    ok_cell (Engine.submit engine (Engine.Survey { module_name = "ntoskrnl.exe" }))
  in
  let a = ok_cell (Engine.submit engine (Engine.Survey { module_name = "hal.dll" })) in
  let b = ok_cell (Engine.submit engine (Engine.Survey { module_name = "hal.dll" })) in
  check Alcotest.bool "duplicate shares the deferred" true (a == b);
  let ra = Deferred.await a in
  ignore (Deferred.await blocker);
  Engine.drain engine;
  (match ra.Engine.r_outcome with
  | Engine.Surveyed s ->
      check Alcotest.(list int) "clean pool" [] s.Report.deviant_vms
  | _ -> Alcotest.fail "expected a survey outcome");
  let st = Engine.stats engine in
  check Alcotest.int "one coalesce hit" 1 st.Engine.st_coalesced;
  check Alcotest.int "two admitted" 2 st.Engine.st_submitted;
  check Alcotest.int "two serviced" 2 st.Engine.st_completed

(* The acceptance criterion: a batch of N overlapping requests through
   one engine performs measurably fewer metered VMI operations than the
   same N requests run standalone. Coalescing eats exact duplicates and
   the shared incremental state eats re-asks; either way the engine's
   merged meter must come in far under N independent runs. *)
let test_batch_cheaper_than_standalone () =
  let seed = 931L in
  let modules = [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ] in
  let dup = 4 in
  let cloud = Cloud.create ~vms:8 ~seed () in
  let standalone = Meter.create () in
  List.iter
    (fun m ->
      for _ = 1 to dup do
        ignore (Orchestrator.survey ~meter:standalone cloud ~module_name:m)
      done)
    modules;
  let engine = Engine.create ~shards:2 cloud in
  let cells =
    List.concat_map
      (fun m ->
        List.init dup (fun _ ->
            ok_cell (Engine.submit engine (Engine.Survey { module_name = m }))))
      modules
  in
  List.iter (fun c -> ignore (Deferred.await c)) cells;
  Engine.drain engine;
  let costs = Costs.default in
  let standalone_s = Meter.total_cpu_seconds costs standalone in
  let engine_s = Meter.total_cpu_seconds costs (Engine.meter engine) in
  check Alcotest.bool
    (Printf.sprintf "engine %.4fs < half of standalone %.4fs" engine_s
       standalone_s)
    true
    (engine_s < standalone_s /. 2.0);
  let st = Engine.stats engine in
  check Alcotest.bool "some submissions coalesced" true
    (st.Engine.st_coalesced > 0);
  check Alcotest.int "every admitted request serviced" st.Engine.st_submitted
    st.Engine.st_completed

(* --- priority ------------------------------------------------------------- *)

let test_priority_jumps_queue () =
  let cloud = Cloud.create ~vms:10 ~seed:932L () in
  let engine = Engine.create ~shards:1 cloud in
  (* A slow blocker occupies the single shard; everything submitted in
     the next few microseconds queues behind it. *)
  let blocker =
    ok_cell (Engine.submit engine (Engine.Survey { module_name = "ntoskrnl.exe" }))
  in
  let low =
    ok_cell
      (Engine.submit ~priority:Engine.Low engine
         (Engine.Survey { module_name = "hal.dll" }))
  in
  let high =
    ok_cell
      (Engine.submit ~priority:Engine.High engine
         (Engine.Survey { module_name = "http.sys" }))
  in
  let rl = Deferred.await low in
  let rh = Deferred.await high in
  ignore (Deferred.await blocker);
  Engine.drain engine;
  check Alcotest.bool "high-priority request waited less than the low one"
    true
    (rh.Engine.r_wait_s < rl.Engine.r_wait_s)

(* --- backpressure --------------------------------------------------------- *)

let test_backpressure_rejects_beyond_bound () =
  let cloud = Cloud.create ~vms:6 ~seed:933L () in
  let engine = Engine.create ~shards:1 ~queue_bound:2 cloud in
  (* Six distinct submissions land within microseconds; a bound-2 queue
     behind a single shard cannot admit them all. *)
  let results =
    List.map
      (fun m -> Engine.submit engine (Engine.Survey { module_name = m }))
      [
        "hal.dll"; "http.sys"; "ntoskrnl.exe"; "tcpip.sys"; "ntfs.sys";
        "win32k.sys";
      ]
  in
  let accepted = List.filter_map Result.to_option results in
  let rejected =
    List.filter_map
      (function
        | Error (Engine.Queue_full n) -> Some n
        | Error Engine.Draining ->
            Alcotest.fail "draining rejection before drain"
        | Ok _ -> None)
      results
  in
  check Alcotest.bool "at least one Queue_full" true (rejected <> []);
  List.iter (fun n -> check Alcotest.int "reported bound" 2 n) rejected;
  check Alcotest.bool "the bound's worth was admitted" true
    (List.length accepted >= 2);
  Engine.drain engine;
  List.iter
    (fun c ->
      check Alcotest.bool "accepted deferred settled" true
        (Deferred.is_filled c);
      ignore (Deferred.await c))
    accepted;
  let st = Engine.stats engine in
  check Alcotest.int "rejections counted" (List.length rejected)
    st.Engine.st_rejected;
  check Alcotest.bool "queue depth never exceeded the bound" true
    (st.Engine.st_max_queue_depth <= 2)

(* --- drain ---------------------------------------------------------------- *)

(* Drain's contract: every deferred ever returned by submit is settled
   when drain returns — including requests that error (absent modules,
   out-of-range VMs) on a pool under fault injection. *)
let test_drain_settles_everything_under_faults () =
  let faults =
    {
      Mc_memsim.Faultplan.none with
      Mc_memsim.Faultplan.transient_rate = 0.15;
      paged_out_rate = 0.05;
      fault_seed = 11;
    }
  in
  let cloud = Cloud.create ~vms:6 ~seed:934L ~fault_spec:faults () in
  let engine = Engine.create ~shards:2 cloud in
  let requests =
    [
      Engine.Check { vm = 0; module_name = "hal.dll" };
      Engine.Check { vm = 1; module_name = "http.sys" };
      Engine.Check { vm = 2; module_name = "no_such.sys" };
      Engine.Check { vm = 99; module_name = "hal.dll" };
      Engine.Survey { module_name = "ntoskrnl.exe" };
      Engine.Survey { module_name = "also_missing.sys" };
      Engine.Lists;
    ]
  in
  let cells = List.map (fun r -> ok_cell (Engine.submit engine r)) requests in
  (* No awaiting first: drain alone must settle them. *)
  Engine.drain engine;
  List.iteri
    (fun i c ->
      check Alcotest.bool
        (Printf.sprintf "request %d settled by drain" i)
        true (Deferred.is_filled c))
    cells;
  (* Settled means answered or poisoned — an await never hangs now. A
     check of a VM outside the pool surfaces as its error/exception. *)
  List.iter (fun c -> try ignore (Deferred.await c) with _ -> ()) cells;
  (* Drain is idempotent and the engine admits nothing afterwards. *)
  Engine.drain engine;
  (match Engine.submit engine Engine.Lists with
  | Error Engine.Draining -> ()
  | Ok _ -> Alcotest.fail "submit admitted after drain"
  | Error (Engine.Queue_full _) -> Alcotest.fail "wrong rejection after drain");
  match Engine.run engine Engine.Lists with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "run must raise after drain"

(* --- request parsing ------------------------------------------------------ *)

let test_request_parsing () =
  (match Wire.parse_line "check 0 hal.dll high" with
  | Ok
      {
        Wire.f_priority = Engine.High;
        f_request = Engine.Check { vm = 0; module_name = "hal.dll" };
      } ->
      ()
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.fail e);
  (match Wire.parse_line "survey - http.sys" with
  | Ok
      {
        Wire.f_priority = Engine.Normal;
        f_request = Engine.Survey { module_name = "http.sys" };
      } ->
      ()
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.fail e);
  (match Wire.parse_line "lists - -" with
  | Ok { Wire.f_request = Engine.Lists; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.fail e);
  (match Wire.parse_line "frobnicate - -" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must not parse");
  (match Wire.parse_line "check 0 hal.dll low" with
  | Ok { Wire.f_priority = Engine.Low; _ } -> ()
  | _ -> Alcotest.fail "priority field");
  (match Wire.parse_line "survey - http.sys" with
  | Ok { Wire.f_priority = Engine.Normal; _ } -> ()
  | _ -> Alcotest.fail "default priority");
  match Wire.parse_line "check 1 hal.dll -" with
  | Ok { Wire.f_priority = Engine.Normal; _ } -> ()
  | _ -> Alcotest.fail "dash priority defaults"

(* --- run: bounded-exponential backoff ------------------------------------- *)

let test_backoff_schedule () =
  let d0 = Engine.backoff_delay_s ~attempt:0 in
  check (Alcotest.float 1e-9) "base delay" 0.0005 d0;
  check (Alcotest.float 1e-9) "doubles per attempt" (2.0 *. d0)
    (Engine.backoff_delay_s ~attempt:1);
  let rec monotone a =
    a > 16
    || Engine.backoff_delay_s ~attempt:a
       <= Engine.backoff_delay_s ~attempt:(a + 1) +. 1e-12
       && monotone (a + 1)
  in
  check Alcotest.bool "monotone nondecreasing" true (monotone 0);
  check (Alcotest.float 1e-9) "capped at 50 ms" 0.05
    (Engine.backoff_delay_s ~attempt:1000)

(* The old `run` slept a fixed interval on a full queue; the regression
   guard: stuff the queue to rejection, then `run` must wait its turn by
   metered backoff — and still come back with a verdict. *)
let test_run_backs_off_on_full_queue () =
  let cloud = Cloud.create ~vms:5 ~seed:951L () in
  let engine = Engine.create ~shards:1 ~queue_bound:2 cloud in
  let stuffing =
    [ "hal.dll"; "ntoskrnl.exe"; "tcpip.sys"; "http.sys"; "dummy.sys";
      "hello.sys" ]
  in
  let cells =
    List.filter_map
      (fun m ->
        match Engine.submit engine (Engine.Survey { module_name = m }) with
        | Ok c -> Some c
        | Error _ -> None)
      stuffing
  in
  let r = Engine.run engine (Engine.Check { vm = 1; module_name = "hal.dll" }) in
  let st = Engine.stats engine in
  Engine.drain engine;
  List.iter (fun c -> ignore (Deferred.await c)) cells;
  (match r.Engine.r_outcome with
  | Engine.Checked (Ok _) -> ()
  | Engine.Checked (Error e) -> Alcotest.fail e
  | _ -> Alcotest.fail "expected a check outcome");
  check Alcotest.bool "run backed off at least once" true
    (st.Engine.st_run_backoffs > 0)

(* --- stream vs batch: same lines, same verdicts, same exit ----------------- *)

let serve_session ~seed ~infect ~request_lines ~window () =
  let cloud = Cloud.create ~vms:5 ~seed () in
  expect_ok (infect cloud);
  let engine = Engine.create ~shards:2 cloud in
  let remaining = ref request_lines in
  let next () =
    match !remaining with
    | [] -> None
    | l :: tl ->
        remaining := tl;
        Some l
  in
  let verdicts = ref [] in
  let emit = function
    | Wire.Resp r -> verdicts := (r.Wire.rs_seq, Wire.verdict_key r) :: !verdicts
    | _ -> ()
  in
  let sv = Serve.run ~window ~emit engine ~next in
  Engine.drain engine;
  (List.sort compare !verdicts, sv.Serve.sv_exit)

(* A window-1 stream and a whole-file batch must decide identically for
   every detection scenario — the window changes pacing, never verdicts. *)
let test_stream_batch_parity () =
  let scenarios =
    [
      ( "E1 opcode", 931L,
        (fun c -> Infect.single_opcode_replacement c ~vm:1),
        [ "check 1 hal.dll high"; "survey - hal.dll"; "check 2 hal.dll low" ] );
      ( "E2 inline hook", 932L,
        (fun c -> Infect.inline_hook c ~vm:1),
        [ "check 1 hal.dll"; "survey - hal.dll -"; "lists - -" ] );
      ( "E3 stub", 933L,
        (fun c -> Infect.stub_modification c ~vm:1),
        [ "check 1 hello.sys"; "survey - hello.sys" ] );
      ( "E4 injection", 934L,
        (fun c -> Infect.dll_injection c ~vm:1),
        [ "check 1 dummy.sys high"; "survey - dummy.sys low" ] );
      ( "X pointer hook", 935L,
        (fun c -> Infect.pointer_hook c ~vm:1),
        [ "check 1 hal.dll"; "check 1 hal.dll"; "survey - hal.dll" ] );
      ( "X DKOM lists", 936L,
        (fun c -> Infect.hide_module c ~vm:2 ~module_name:"tcpip.sys"),
        [ "lists - -"; "check 0 hal.dll" ] );
    ]
  in
  List.iter
    (fun (name, seed, infect, request_lines) ->
      let batch_v, batch_exit =
        serve_session ~seed ~infect ~request_lines ~window:max_int ()
      in
      let stream_v, stream_exit =
        serve_session ~seed ~infect ~request_lines ~window:1 ()
      in
      check
        Alcotest.(list (pair int string))
        (name ^ ": per-request verdicts") batch_v stream_v;
      check Alcotest.int (name ^ ": exit code") batch_exit stream_exit;
      check Alcotest.int
        (name ^ ": infection reaches the exit status")
        Exit_code.infected stream_exit)
    scenarios

(* An engine on the plain default config is incremental, and incremental
   means Merkle: a warm check takes the fast path, and its wire response
   carries the anchor root the ledger pins. *)
let test_default_engine_fast_path () =
  let counter name =
    Mc_telemetry.Metric.counter_value (Mc_telemetry.Registry.counter name)
  in
  Mc_telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Mc_telemetry.Registry.set_enabled false)
  @@ fun () ->
  let cloud = Cloud.create ~vms:5 ~seed:937L () in
  let engine = Engine.create ~config:Orchestrator.Config.default cloud in
  ignore (Engine.run engine (Engine.Check { vm = 1; module_name = "hal.dll" }));
  let fast0 = counter "check.merkle_fast_path" in
  let roots = ref [] in
  let emit = function
    | Wire.Resp r -> roots := r.Wire.rs_root :: !roots
    | _ -> ()
  in
  let remaining = ref [ "check 1 hal.dll" ] in
  let next () =
    match !remaining with
    | [] -> None
    | l :: tl ->
        remaining := tl;
        Some l
  in
  ignore (Serve.run ~emit engine ~next);
  Engine.drain engine;
  check Alcotest.bool "warm check took the fast path" true
    (counter "check.merkle_fast_path" > fast0);
  match !roots with
  | [ Some _ ] -> ()
  | _ -> Alcotest.fail "expected one response carrying an anchor root"

(* With telemetry on, every serviced request bumps its shard's counter
   and leaves the shard's busy gauge at the engine's own figure. *)
let test_shard_telemetry () =
  let module Registry = Mc_telemetry.Registry in
  let module Metric = Mc_telemetry.Metric in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) @@ fun () ->
  let cloud = Cloud.create ~vms:4 ~seed:938L () in
  let engine = Engine.create ~shards:2 cloud in
  let requests =
    List.concat_map
      (fun module_name ->
        Engine.Survey { module_name }
        :: List.init 4 (fun vm -> Engine.Check { vm; module_name }))
      [ "hal.dll"; "http.sys"; "ntoskrnl.exe" ]
  in
  let cells = List.map (fun r -> ok_cell (Engine.submit engine r)) requests in
  List.iter (fun c -> ignore (Deferred.await c)) cells;
  Engine.drain engine;
  let st = Engine.stats engine in
  let serviced sh =
    Metric.counter_value
      (Registry.counter (Printf.sprintf "engine.shard.%d.serviced" sh))
  in
  check Alcotest.int "shard counters sum to the requests"
    (List.length requests)
    (serviced 0 + serviced 1);
  for sh = 0 to 1 do
    check Alcotest.int
      (Printf.sprintf "shard %d counter" sh)
      st.Engine.st_per_shard_serviced.(sh) (serviced sh);
    check (Alcotest.float 0.)
      (Printf.sprintf "shard %d busy gauge" sh)
      st.Engine.st_per_shard_busy_s.(sh)
      (Metric.gauge_value
         (Registry.gauge (Printf.sprintf "engine.shard.%d.busy_s" sh)))
  done

(* --- versioned report JSON ------------------------------------------------ *)

let reparse json =
  match Mc_util.Json.of_string (Mc_util.Json.to_string json) with
  | Ok j -> j
  | Error e -> Alcotest.fail ("reprinted JSON does not parse: " ^ e)

let test_report_json_roundtrip () =
  let cloud = Cloud.create ~vms:5 ~seed:940L () in
  expect_ok (Infect.inline_hook cloud ~vm:2);
  let report =
    match Orchestrator.check_module cloud ~target_vm:2 ~module_name:"hal.dll" with
    | Ok o -> o.Orchestrator.report
    | Error e -> Alcotest.fail e
  in
  match Report.of_json (reparse (Report.to_json report)) with
  | Ok r -> check Alcotest.bool "round-trip equal" true (r = report)
  | Error e -> Alcotest.fail e

let test_survey_json_roundtrip () =
  let cloud = Cloud.create ~vms:6 ~seed:941L () in
  expect_ok (Infect.dll_injection cloud ~vm:3);
  let s = Orchestrator.survey cloud ~module_name:"dummy.sys" in
  match Report.survey_of_json (reparse (Report.survey_to_json s)) with
  | Ok s' -> check Alcotest.bool "round-trip equal" true (s' = s)
  | Error e -> Alcotest.fail e

let test_json_schema_rejected () =
  let cloud = Cloud.create ~vms:3 ~seed:942L () in
  let report =
    match Orchestrator.check_module cloud ~target_vm:0 ~module_name:"hal.dll" with
    | Ok o -> o.Orchestrator.report
    | Error e -> Alcotest.fail e
  in
  let json = Report.to_json report in
  (* A survey document is not a module report, and vice versa. *)
  (match Report.survey_of_json json with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "survey_of_json must reject a report document");
  match Report.of_json (Report.survey_to_json (Orchestrator.survey cloud ~module_name:"hal.dll")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_json must reject a survey document"

(* qcheck: round-trip holds for arbitrary well-formed records, not just
   ones the pipeline happens to produce. *)

let gen_hex =
  QCheck.Gen.(map (Printf.sprintf "%08x") (int_bound 0xFFFFFF))

let gen_kind =
  QCheck.Gen.oneofl
    Artifact.
      [
        Dos_header; Nt_header; File_header; Optional_header;
        Section_header ".text"; Section_data ".text"; Section_data ".rdata";
        Section_data "PAGE";
      ]

let gen_verdict =
  QCheck.Gen.(
    oneof
      [
        return Report.Intact;
        return Report.Infected;
        map (fun n -> Report.Degraded (Printf.sprintf "%d of 5 responded" n))
          (int_bound 4);
      ])

let gen_artifact_verdict =
  QCheck.Gen.(
    map
      (fun (kind, m, d1, d2, adj) ->
        {
          Modchecker.Checker.av_kind = kind;
          av_match = m;
          av_digest1 = d1;
          av_digest2 = d2;
          av_adjusted = adj;
        })
      (tup5 gen_kind bool gen_hex gen_hex (int_bound 64)))

let gen_comparison =
  QCheck.Gen.(
    map
      (fun (vm, verdicts, adj) ->
        let all_match =
          List.for_all (fun v -> v.Modchecker.Checker.av_match) verdicts
        in
        {
          Report.other_vm = vm;
          result =
            { Modchecker.Checker.verdicts; all_match; total_adjusted = adj };
        })
      (tup3 (int_bound 15) (list_size (int_bound 6) gen_artifact_verdict)
         (int_bound 512)))

let gen_module_report =
  QCheck.Gen.(
    map
      (fun ((name, vm, comparisons, verdict), (unreachable, surveyed)) ->
        let total = List.length comparisons in
        let matches =
          List.length
            (List.filter (fun c -> c.Report.result.Modchecker.Checker.all_match)
               comparisons)
        in
        {
          Report.module_name = name;
          target_vm = vm;
          comparisons;
          matches;
          total;
          majority_ok = 2 * matches > total;
          flagged_artifacts =
            List.sort_uniq compare
              (List.concat_map
                 (fun c ->
                   List.filter_map
                     (fun v ->
                       if v.Modchecker.Checker.av_match then None
                       else Some v.Modchecker.Checker.av_kind)
                     c.Report.result.Modchecker.Checker.verdicts)
                 comparisons);
          unreachable;
          surveyed;
          responded = surveyed - List.length unreachable;
          voted = total;
          verdict;
        })
      (tup2
         (tup4
            (oneofl [ "hal.dll"; "ntoskrnl.exe"; "hello.sys" ])
            (int_bound 15)
            (list_size (int_bound 5) gen_comparison)
            gen_verdict)
         (tup2
            (list_size (int_bound 3)
               (tup2 (int_bound 15) (oneofl [ "unreachable"; "timed out" ])))
            (int_bound 15))))

let gen_survey =
  QCheck.Gen.(
    map
      (fun ((name, vms, missing, deviants), (classes, pairs, unreachable, verdict)) ->
        {
          Report.survey_module = name;
          vm_indices = vms;
          missing_on = missing;
          deviant_vms = deviants;
          agreement_classes = classes;
          pairwise_matches = pairs;
          unreachable_on = unreachable;
          s_surveyed = List.length vms;
          s_responded = List.length vms - List.length unreachable;
          s_voted = List.length vms - List.length missing;
          s_verdict = verdict;
        })
      (tup2
         (tup4
            (oneofl [ "hal.dll"; "tcpip.sys" ])
            (list_size (int_bound 8) (int_bound 15))
            (list_size (int_bound 3) (int_bound 15))
            (list_size (int_bound 3) (int_bound 15)))
         (tup4
            (list_size (int_bound 3) (list_size (int_bound 4) (int_bound 15)))
            (list_size (int_bound 6)
               (tup2 (tup2 (int_bound 15) (int_bound 15)) bool))
            (list_size (int_bound 2)
               (tup2 (int_bound 15) (oneofl [ "gone"; "torn" ])))
            gen_verdict)))

let prop_report_roundtrip =
  QCheck.Test.make ~count:200 ~name:"report JSON round-trips"
    (QCheck.make gen_module_report) (fun r ->
      match Report.of_json (reparse (Report.to_json r)) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let prop_survey_roundtrip =
  QCheck.Test.make ~count:200 ~name:"survey JSON round-trips"
    (QCheck.make gen_survey) (fun s ->
      match Report.survey_of_json (reparse (Report.survey_to_json s)) with
      | Ok s' -> s' = s
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* qcheck: the wire reply codec round-trips arbitrary well-formed frames.
   Floats are drawn as multiples of 1/64 — exact in binary, so the
   emitter's shortest-form printing cannot perturb them. *)

let gen_q64 = QCheck.Gen.(map (fun n -> float_of_int n /. 64.0) (int_bound 4096))

let gen_priority = QCheck.Gen.oneofl [ Engine.High; Engine.Normal; Engine.Low ]

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun vm m -> Engine.Check { vm; module_name = m })
          (int_bound 15)
          (oneofl [ "hal.dll"; "http.sys" ]);
        map
          (fun m -> Engine.Survey { module_name = m })
          (oneofl [ "hal.dll"; "tcpip.sys" ]);
        return Engine.Lists;
      ])

let gen_frame =
  QCheck.Gen.(
    map2
      (fun p r -> { Wire.f_priority = p; f_request = r })
      gen_priority gen_request)

let gen_lists_comparison =
  QCheck.Gen.(
    map2
      (fun ds unreachable ->
        { Orchestrator.lc_discrepancies = ds; lc_unreachable = unreachable })
      (list_size (int_bound 3)
         (map
            (fun (m, p, miss) ->
              { Orchestrator.ld_module = m; present_on = p; missing_on = miss })
            (tup3
               (oneofl [ "tcpip.sys"; "rootkit.sys" ])
               (list_size (int_bound 4) (int_bound 15))
               (list_size (int_bound 4) (int_bound 15)))))
      (list_size (int_bound 2)
         (tup2 (int_bound 15) (oneofl [ "gone"; "mute" ]))))

(* The body shape follows the request kind, so the generator keys the
   body on the frame — exactly the invariant the decoder relies on. *)
let gen_resp =
  QCheck.Gen.(
    gen_frame >>= fun frame ->
    let gen_err =
      map
        (fun e -> Wire.Error_body e)
        (oneofl [ "Dom3 unreachable: powered off"; "module not found" ])
    in
    let gen_body =
      match frame.Wire.f_request with
      | Engine.Check _ ->
          oneof [ map (fun r -> Wire.Report_body r) gen_module_report; gen_err ]
      | Engine.Survey _ ->
          oneof [ map (fun s -> Wire.Survey_body s) gen_survey; gen_err ]
      | Engine.Lists ->
          oneof
            [ map (fun lc -> Wire.Lists_body lc) gen_lists_comparison; gen_err ]
    in
    map
      (fun ((seq, shard, wait, service), (meter, root, body)) ->
        {
          Wire.rs_seq = seq;
          rs_frame = frame;
          rs_shard = shard;
          rs_wait_s = wait;
          rs_service_s = service;
          rs_meter = meter;
          rs_root = root;
          rs_body = body;
        })
      (tup2
         (tup4 (int_bound 10000) (int_bound 7) gen_q64 gen_q64)
         (tup3
            (list_size (int_bound 4)
               (tup2
                  (oneofl
                     [ "searcher.vm_reads"; "parser.headers";
                       "checker.md5_blocks" ])
                  (int_bound 5000)))
            (opt gen_hex) gen_body)))

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Wire.Resp r) gen_resp;
        map
          (fun (seq, retry, bound) ->
            Wire.Busy
              { b_seq = seq; b_retry_after_s = retry; b_queue_bound = bound })
          (tup3 (int_bound 10000) gen_q64 (int_bound 256));
        map (fun seq -> Wire.Draining { d_seq = seq }) (int_bound 10000);
        map
          (fun (seq, e) -> Wire.Invalid { i_seq = seq; i_error = e })
          (tup2 (int_bound 10000)
             (oneofl
                [ "unknown request kind frobnicate"; "check: VM index expected" ]));
      ])

let prop_wire_reply_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire reply JSON round-trips"
    (QCheck.make gen_reply) (fun reply ->
      match Wire.reply_of_json (reparse (Wire.reply_to_json reply)) with
      | Ok reply' -> reply' = reply
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let prop_frame_line_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame/line round-trips"
    (QCheck.make gen_frame) (fun f ->
      match Wire.parse_line (Wire.line_of_frame f) with
      | Ok f' -> f' = f
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* Arbitrary request lines: a field mix biased towards the grammar's
   edges (kinds and priorities in any case or unknown, huge, negative and
   prefixed ints, control bytes, extra fields) joined by arbitrary
   separators, plus fully random strings. *)
let gen_request_line =
  let open QCheck.Gen in
  let any_bytes = string_size ~gen:char (int_bound 12) in
  let field =
    frequency
      [
        ( 3,
          oneofl
            [ "check"; "survey"; "lists"; "CHECK"; "Survey"; "frobnicate";
              "high"; "normal"; "low"; "HIGH"; "urgent"; "-"; "hal.dll" ] );
        ( 3,
          oneofl
            [ "0"; "7"; "-1"; "-0"; "+3"; "0x10"; "0b101"; "0o17"; "1_000";
              "0u5"; "4611686018427387903"; "4611686018427387904";
              "-4611686018427387905"; "99999999999999999999999"; "1e3" ] );
        (2, map string_of_int int);
        (2, any_bytes);
      ]
  in
  let sep = oneofl [ " "; "  "; "\t"; " \t "; "\000"; "\r"; "\n" ] in
  let line =
    int_range 0 6 >>= fun n ->
    list_repeat n field >>= fun fs ->
    list_repeat n sep >>= fun ss ->
    return (String.concat "" (List.concat (List.map2 (fun f s -> [ f; s ]) fs ss)))
  in
  frequency [ (4, line); (1, string_size ~gen:char (int_bound 40)) ]

let prop_parse_line_total =
  QCheck.Test.make ~count:2000 ~name:"parse_line is total"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_request_line)
    (fun line ->
      match Wire.parse_line line with
      | exception e ->
          QCheck.Test.fail_reportf "parse_line raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok f -> (
          let line' = Wire.line_of_frame f in
          match Wire.parse_line line' with
          | Ok f' when f' = f -> true
          | Ok _ -> QCheck.Test.fail_reportf "%S parses to another frame" line'
          | Error e -> QCheck.Test.fail_reportf "%S does not parse: %s" line' e
          | exception e ->
              QCheck.Test.fail_reportf "parse_line %S raised %s" line'
                (Printexc.to_string e)))

let () =
  Alcotest.run "engine"
    [
      ( "parity",
        [
          Alcotest.test_case "E1 opcode" `Quick test_parity_e1_opcode;
          Alcotest.test_case "E2 inline hook" `Quick test_parity_e2_hook;
          Alcotest.test_case "E3 stub" `Quick test_parity_e3_stub;
          Alcotest.test_case "E4 injection" `Quick test_parity_e4_injection;
          Alcotest.test_case "X pointer hook" `Quick
            test_parity_ext_pointer_hook;
          Alcotest.test_case "X DKOM lists" `Quick test_parity_ext_dkom_lists;
          Alcotest.test_case "survey parity" `Quick test_parity_survey;
        ] );
      ( "service",
        [
          Alcotest.test_case "coalesces duplicates" `Quick
            test_coalesce_duplicates;
          Alcotest.test_case "batch cheaper than standalone" `Quick
            test_batch_cheaper_than_standalone;
          Alcotest.test_case "priority jumps queue" `Quick
            test_priority_jumps_queue;
          Alcotest.test_case "backpressure" `Quick
            test_backpressure_rejects_beyond_bound;
          Alcotest.test_case "drain settles everything" `Quick
            test_drain_settles_everything_under_faults;
          Alcotest.test_case "request parsing" `Quick test_request_parsing;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "run backs off on full queue" `Quick
            test_run_backs_off_on_full_queue;
          Alcotest.test_case "stream/batch parity" `Quick
            test_stream_batch_parity;
          Alcotest.test_case "default engine takes the fast path" `Quick
            test_default_engine_fast_path;
          Alcotest.test_case "per-shard telemetry" `Quick test_shard_telemetry;
        ] );
      ( "report-json",
        [
          Alcotest.test_case "report round-trip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "survey round-trip" `Quick
            test_survey_json_roundtrip;
          Alcotest.test_case "schema rejected" `Quick test_json_schema_rejected;
          QCheck_alcotest.to_alcotest prop_report_roundtrip;
          QCheck_alcotest.to_alcotest prop_survey_roundtrip;
        ] );
      ( "wire-json",
        [
          QCheck_alcotest.to_alcotest prop_wire_reply_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_line_roundtrip;
          QCheck_alcotest.to_alcotest prop_parse_line_total;
        ] );
    ]
