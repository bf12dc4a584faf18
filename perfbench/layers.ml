(* Per-layer probes: each times direct calls into one layer's public
   functions, on inputs taken from the workload's own cloud and traffic.
   Nothing here is instrumented inside the program — the numbers come from
   timing the calls from outside. Telemetry is off while probing. *)

open Common
module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Orchestrator = Modchecker.Orchestrator
module Searcher = Modchecker.Searcher
module Parser = Modchecker.Parser
module Checker = Modchecker.Checker
module Artifact = Modchecker.Artifact
module Rva = Modchecker.Rva
module Wire = Mc_engine.Wire
module Json = Mc_util.Json
module Pool = Mc_parallel.Pool
module Deferred = Mc_parallel.Deferred

let vmi_of cloud vm =
  let dom = Cloud.vm cloud vm in
  Mc_vmi.Vmi.init dom
    (Mc_vmi.Symbols.of_variant
       (Mc_winkernel.Kernel.os_variant (Dom.kernel_exn dom)))

let fetch_exn cloud ~vm ~module_name =
  match Searcher.fetch (vmi_of cloud vm) ~name:module_name with
  | Some r -> r
  | None -> failwith (Printf.sprintf "probe: %s absent on VM %d" module_name vm)

let artifacts_exn buf =
  match Parser.artifacts buf with
  | Ok arts -> arts
  | Error e -> failwith ("probe: parse failed: " ^ e)

let text_of arts =
  match Artifact.find arts (Artifact.Section_data ".text") with
  | Some a -> a.Artifact.data
  | None -> failwith "probe: no .text section"

(* A no-op task through a 2-domain pool and back: the handoff every
   parallel per-VM check pays. *)
let pool_roundtrip_s () =
  Pool.with_pool 2 (fun pool ->
      per_call ~reps:40 (fun () -> Deferred.await (Pool.run pool ignore)))

(* Wire codec and ledger over [samples] — (request line, reply) pairs the
   workload produced. [ledger_file] is a chain the workload wrote; when
   absent, the probe ledger is written out and verified instead. *)
let wire_and_ledger ~samples ~ledger_file =
  let samples = List.filteri (fun i _ -> i < 200) samples in
  let lines = List.map fst samples and replies = List.map snd samples in
  let n = float_of_int (max 1 (List.length samples)) in
  let parse_s =
    per_call ~reps:15 (fun () ->
        List.iter (fun l -> ignore (Wire.parse_line l)) lines)
    /. n
  in
  let encode_s =
    per_call ~reps:15 (fun () ->
        List.iter
          (fun r -> ignore (Json.to_string (Wire.reply_to_json r)))
          replies)
    /. n
  in
  let bodies =
    List.filter_map
      (function
        | Wire.Resp resp as r ->
            Some (resp, Json.to_string (Wire.reply_to_json r))
        | Wire.Busy _ | Wire.Draining _ | Wire.Invalid _ -> None)
      replies
  in
  let fill ledger =
    List.iter
      (fun ((resp : Wire.resp), body) ->
        let surveyed, responded = Wire.vote_counts resp in
        ignore
          (Mc_ledger.append ledger ~key:(Wire.frame_key resp.Wire.rs_frame)
             ~verdict:(Wire.verdict_key resp) ~surveyed ~responded
             ?root:resp.Wire.rs_root ~meter:resp.Wire.rs_meter ~body ()))
      bodies
  in
  let append_s =
    per_call ~reps:15 (fun () -> fill (Mc_ledger.create ~sink:ignore ()))
    /. float_of_int (max 1 (List.length bodies))
  in
  let file, written =
    match ledger_file with
    | Some f -> (f, false)
    | None ->
        let ledger = Mc_ledger.create () in
        fill ledger;
        let f = tmp_file "probe.ledger" in
        Out_channel.with_open_bin f (fun oc ->
            output_string oc (Mc_ledger.contents ledger));
        (f, true)
  in
  let bytes = float_of_int (Unix.stat file).Unix.st_size in
  let verify_s =
    per_call ~reps:5 (fun () ->
        match Mc_ledger.verify_file file with
        | Ok _ -> ()
        | Error e -> failwith ("probe: ledger does not verify: " ^ e.Mc_ledger.ve_reason))
  in
  if written then Sys.remove file;
  [
    ("wire.parse_us", parse_s *. 1e6);
    ("wire.encode_us", encode_s *. 1e6);
    ("ledger.append_us", append_s *. 1e6);
    ("ledger.verify_mb_s", ratio (bytes /. 1e6) verify_s);
  ]

(* A warm Merkle check straight through the orchestrator, no engine: the
   per-request floor under the engine's queueing. *)
let warm_check_s cloud ~vm ~module_name =
  let config =
    Orchestrator.Config.default
    |> Orchestrator.Config.with_incremental (Orchestrator.create_incremental ())
    |> Orchestrator.Config.with_merkle true
  in
  let check () =
    match Orchestrator.check_module ~config cloud ~target_vm:vm ~module_name with
    | Ok _ -> ()
    | Error e -> failwith ("probe: warm check: " ^ e)
  in
  check ();
  per_call ~reps:15 check

(* The checking pipeline's layers on one module pair (VMs [a] and [b]):
   fetch, copy, parse, Algorithm 2, pair compare, MD5, Merkle refresh. *)
let pipeline cloud ~module_name ~a ~b =
  let info1, buf1 = fetch_exn cloud ~vm:a ~module_name in
  let info2, buf2 = fetch_exn cloud ~vm:b ~module_name in
  let fetch_s =
    per_call ~reps:15 (fun () ->
        ignore (Searcher.fetch (vmi_of cloud a) ~name:module_name))
  in
  let copy_s =
    per_call ~reps:15 (fun () ->
        ignore (Searcher.copy_module (vmi_of cloud a) info1))
  in
  let parse_s = per_call ~reps:15 (fun () -> ignore (artifacts_exn buf1)) in
  let arts1 = artifacts_exn buf1 and arts2 = artifacts_exn buf2 in
  let base1 = info1.Searcher.mi_base and base2 = info2.Searcher.mi_base in
  let text1 = text_of arts1 and text2 = text_of arts2 in
  let adjust_s =
    per_call ~reps:15 (fun () ->
        ignore
          (Rva.adjust_pair ~base1 ~base2 (Bytes.copy text1) (Bytes.copy text2)))
  in
  let compare_s =
    per_call ~reps:15 (fun () ->
        ignore (Checker.compare_pair ~base1 arts1 ~base2 arts2))
  in
  let md5_s =
    per_call ~reps:15 (fun () -> ignore (Mc_md5.Md5.digest_bytes buf1))
  in
  let tree = Checker.merkle_of_bytes text1 in
  let leaves = Mc_md5.Merkle.leaf_count tree in
  (* Four leaves spread over the section: a typical multi-page touch. *)
  let dirty = List.sort_uniq compare (List.init 4 (fun i -> i * leaves / 4)) in
  let rehash_s =
    per_call ~reps:15 (fun () ->
        ignore (Checker.merkle_rehash tree text1 ~dirty))
  in
  let mb n s = ratio (float_of_int n /. 1e6) s in
  [
    ("searcher.fetch_ms", fetch_s *. 1e3);
    ("searcher.copy_mb_s", mb info1.Searcher.mi_size copy_s);
    ("parser.artifacts_ms", parse_s *. 1e3);
    ("rva.adjust_pair_ms", adjust_s *. 1e3);
    ("checker.compare_pair_ms", compare_s *. 1e3);
    ("md5.mb_s", mb (Bytes.length buf1) md5_s);
    ("checker.merkle_rehash_us", rehash_s *. 1e6);
  ]

(* Every probe, on [module_name] of the workload's [cloud]. The module
   must be clean on every VM, so the warm check stays on its fast path. *)
let probe cloud ~module_name ~samples ~ledger_file =
  let was = Tel.enabled () in
  Tel.set_enabled false;
  let metrics =
    [ ("pool.roundtrip_us", pool_roundtrip_s () *. 1e6);
      ( "orchestrator.warm_check_ms",
        warm_check_s cloud ~vm:0 ~module_name *. 1e3 ) ]
    @ wire_and_ledger ~samples ~ledger_file
    @ pipeline cloud ~module_name ~a:0 ~b:1
  in
  Tel.set_enabled was;
  metrics
