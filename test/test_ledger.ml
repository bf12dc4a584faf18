(* Mc_ledger: the hash-chained attestation ledger. The contract under
   test: the serialized chain is tamper-evident offline — any flipped
   byte, dropped, reordered, or truncated entry fails verification and
   names the first bad entry — and a real serving session's ledger
   verifies end to end. *)

module Ledger = Mc_ledger
module Traffic = Mc_simtest.Traffic
module Exit_code = Modchecker.Exit_code

let check = Alcotest.check

let reparse json =
  match Mc_util.Json.of_string (Mc_util.Json.to_string json) with
  | Ok j -> j
  | Error e -> Alcotest.fail ("reprinted JSON does not parse: " ^ e)

(* A deterministic chain with some variety in every field. *)
let build_chain n =
  let t = Ledger.create () in
  for i = 0 to n - 1 do
    ignore
      (Ledger.append t
         ~key:(Printf.sprintf "check:%d:hal.dll" (i mod 4))
         ~verdict:(if i mod 5 = 0 then "infected" else "intact")
         ~surveyed:5
         ~responded:(4 + (i mod 2))
         ?root:(if i mod 3 = 0 then Some (Printf.sprintf "%032x" i) else None)
         ~meter:[ ("checker.md5_blocks", 100 + i) ]
         ~body:(Printf.sprintf "{\"seq\":%d}" i)
         ())
  done;
  t

(* --- chain mechanics ------------------------------------------------------ *)

let test_chain_grows () =
  let t = Ledger.create () in
  check Alcotest.string "empty head is genesis" Ledger.genesis (Ledger.head t);
  let e0 =
    Ledger.append t ~key:"check:0:hal.dll" ~verdict:"intact" ~surveyed:5
      ~responded:5 ~root:"deadbeef" ~meter:[ ("checker.md5_blocks", 7) ]
      ~body:"{}" ()
  in
  check Alcotest.string "entry 0 chains from genesis" Ledger.genesis
    e0.Ledger.en_prev;
  check Alcotest.string "head follows the append" e0.Ledger.en_hash
    (Ledger.head t);
  let e1 =
    Ledger.append t ~key:"survey:-:hal.dll" ~verdict:"infected" ~surveyed:5
      ~responded:4 ~meter:[] ~body:"{\"v\":1}" ()
  in
  check Alcotest.string "entry 1 chains from entry 0" e0.Ledger.en_hash
    e1.Ledger.en_prev;
  check Alcotest.int "length" 2 (Ledger.length t);
  match Ledger.verify ~expect_head:(Ledger.head t) (Ledger.contents t) with
  | Ok s ->
      check Alcotest.int "entries" 2 s.Ledger.sum_entries;
      check Alcotest.string "verified head" (Ledger.head t) s.Ledger.sum_head;
      check
        Alcotest.(list (pair string int))
        "verdict histogram"
        [ ("infected", 1); ("intact", 1) ]
        s.Ledger.sum_verdicts
  | Error e -> Alcotest.fail e.Ledger.ve_reason

let test_entry_json_roundtrip () =
  let t = Ledger.create () in
  let e =
    Ledger.append t ~key:"lists" ~verdict:"intact" ~surveyed:0 ~responded:0
      ~meter:[ ("searcher.vm_reads", 12) ]
      ~body:"{\"t\":\"lists\"}" ()
  in
  (match Ledger.entry_of_json (reparse (Ledger.entry_to_json e)) with
  | Ok e' -> check Alcotest.bool "round-trip equal" true (e' = e)
  | Error err -> Alcotest.fail err);
  match Ledger.verify (Ledger.entry_line e) with
  | Ok s -> check Alcotest.int "canonical line verifies" 1 s.Ledger.sum_entries
  | Error err -> Alcotest.fail err.Ledger.ve_reason

let test_sink_streams () =
  let buf = Buffer.create 256 in
  let t = Ledger.create ~sink:(Buffer.add_string buf) () in
  for i = 0 to 4 do
    ignore
      (Ledger.append t
         ~key:(Printf.sprintf "check:%d:hal.dll" i)
         ~verdict:"intact" ~surveyed:3 ~responded:3 ~meter:[] ~body:"{}" ())
  done;
  (match Ledger.contents t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "contents must raise with a custom sink");
  match Ledger.verify ~expect_head:(Ledger.head t) (Buffer.contents buf) with
  | Ok s -> check Alcotest.int "sinked lines verify" 5 s.Ledger.sum_entries
  | Error e -> Alcotest.fail e.Ledger.ve_reason

(* --- tamper evidence ------------------------------------------------------ *)

let test_truncation_detected () =
  let t = build_chain 8 in
  let full = Ledger.contents t in
  let head = Ledger.head t in
  let cut = String.rindex (String.trim full) '\n' in
  let truncated = String.sub full 0 (cut + 1) in
  (match Ledger.verify truncated with
  | Ok s ->
      check Alcotest.int "a shorter prefix still chains" 7 s.Ledger.sum_entries
  | Error e -> Alcotest.fail e.Ledger.ve_reason);
  match Ledger.verify ~expect_head:head truncated with
  | Ok _ -> Alcotest.fail "truncation must fail against a pinned head"
  | Error e -> check Alcotest.int "named at the cut" 7 e.Ledger.ve_index

let split_lines t =
  Array.of_list (String.split_on_char '\n' (String.trim (Ledger.contents t)))

let test_reorder_detected () =
  let arr = split_lines (build_chain 6) in
  let tmp = arr.(2) in
  arr.(2) <- arr.(3);
  arr.(3) <- tmp;
  match Ledger.verify (String.concat "\n" (Array.to_list arr)) with
  | Ok _ -> Alcotest.fail "reordered chain verified"
  | Error e -> check Alcotest.int "first bad entry" 2 e.Ledger.ve_index

let test_dropped_entry_detected () =
  let arr = split_lines (build_chain 6) in
  let kept =
    List.filteri (fun i _ -> i <> 2) (Array.to_list arr)
  in
  match Ledger.verify (String.concat "\n" kept) with
  | Ok _ -> Alcotest.fail "gapped chain verified"
  | Error e -> check Alcotest.int "first bad entry" 2 e.Ledger.ve_index

(* qcheck: flipping any single non-newline byte fails verification at
   exactly the line holding the byte. *)
let prop_byte_flip_localized =
  let t = build_chain 12 in
  let chain = Ledger.contents t in
  let head = Ledger.head t in
  QCheck.Test.make ~count:300 ~name:"a flipped byte names its entry"
    (QCheck.make QCheck.Gen.(int_bound (String.length chain - 1)))
    (fun pos ->
      let c = chain.[pos] in
      if c = '\n' then true
      else
        let b = Bytes.of_string chain in
        Bytes.set b pos (if c = 'x' then 'y' else 'x');
        let expected = ref 0 in
        String.iteri
          (fun i ch -> if i < pos && ch = '\n' then incr expected)
          chain;
        match Ledger.verify ~expect_head:head (Bytes.to_string b) with
        | Ok _ ->
            QCheck.Test.fail_reportf "tampered chain verified (byte %d)" pos
        | Error e ->
            if e.Ledger.ve_index = !expected then true
            else
              QCheck.Test.fail_reportf
                "byte %d blamed entry %d, expected %d (%s)" pos
                e.Ledger.ve_index !expected e.Ledger.ve_reason)

(* qcheck: an auditor runs [verify] on whatever file they are handed,
   so it must be total: [Ok] or [Error] on any input, never an
   exception, with or without a pinned head. Inputs are random strings
   over a JSON-heavy alphabet, and a valid 6-entry chain with bytes
   overwritten by arbitrary ones, a range deleted, or its tail cut. *)
let prop_verify_total =
  let t = build_chain 6 in
  let chain = Ledger.contents t in
  let head = Ledger.head t in
  let n = String.length chain in
  let open QCheck.Gen in
  let json_char =
    oneof
      [ oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '\n'; '-'; 'e' ];
        numeral; char ]
  in
  let random = string_size ~gen:json_char (int_bound 400) in
  let flipped =
    let* flips = list_size (int_range 1 4) (pair (int_bound (n - 1)) char) in
    let b = Bytes.of_string chain in
    List.iter (fun (i, c) -> Bytes.set b i c) flips;
    return (Bytes.to_string b)
  in
  let deleted =
    let* i = int_bound (n - 1) in
    let* len = int_range 1 (n - i) in
    return (String.sub chain 0 i ^ String.sub chain (i + len) (n - i - len))
  in
  let truncated = map (fun k -> String.sub chain 0 k) (int_bound n) in
  QCheck.Test.make ~count:1000 ~name:"verify is total on hostile input"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (oneof [ random; flipped; deleted; truncated ]))
    (fun input ->
      List.for_all
        (fun expect_head ->
          match Ledger.verify ?expect_head input with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))
        [ None; Some head ])

(* qcheck: [append] builds its line in one pass (payload plus a spliced
   [hash] field) and streams the chain hash. Whatever the fields hold —
   keys and verdicts that need escaping, no root, empty meters, bodies up
   to 20 KB — the line must be the canonical [entry_line], the hash the
   MD5 of [prev ^ payload] computed the plain way, and the chain must
   verify. *)
let prop_one_pass_line =
  let open QCheck.Gen in
  let text =
    string_size
      ~gen:(oneof [ oneofl [ '"'; '\\'; '\n'; '\x00'; '\x1f'; '\x7f'; '\xff' ]; printable ])
      (int_bound 10)
  in
  let body =
    map2
      (fun len seed -> String.init len (fun i -> Char.chr (((i * 31) + seed) land 255)))
      (int_bound 20_000) (int_bound 255)
  in
  let entry =
    let* key = text in
    let* verdict = text in
    let* surveyed = small_nat in
    let* responded = small_nat in
    let* root = opt text in
    let* meter = list_size (int_bound 3) (pair text int) in
    let* body = body in
    return (key, verdict, surveyed, responded, root, meter, body)
  in
  let md5_hex s = Mc_md5.Md5.to_hex (Mc_md5.Md5.digest_string s) in
  QCheck.Test.make ~count:100 ~name:"append's one-pass line is the canonical line"
    (QCheck.make (list_size (int_range 1 5) entry))
    (fun entries ->
      let sunk = ref [] in
      let t = Ledger.create ~sink:(fun l -> sunk := l :: !sunk) () in
      List.iter
        (fun (key, verdict, surveyed, responded, root, meter, body) ->
          let prev = Ledger.head t in
          let e =
            Ledger.append t ~key ~verdict ~surveyed ~responded ?root ~meter
              ~body ()
          in
          let line = match !sunk with l :: _ -> l | [] -> "" in
          let payload =
            match Ledger.entry_to_json e with
            | Mc_util.Json.Obj fields ->
                Mc_util.Json.to_string
                  (Mc_util.Json.Obj (List.remove_assoc "hash" fields))
            | _ -> QCheck.Test.fail_report "entry is not an object"
          in
          if not (String.equal line (Ledger.entry_line e ^ "\n")) then
            QCheck.Test.fail_reportf "sunk line %S, canonical %S" line
              (Ledger.entry_line e);
          if not (String.equal e.Ledger.en_hash (md5_hex (prev ^ payload)))
          then QCheck.Test.fail_reportf "hash of entry %d" e.Ledger.en_seq;
          if not (String.equal e.Ledger.en_body_md5 (md5_hex body)) then
            QCheck.Test.fail_reportf "body digest of entry %d" e.Ledger.en_seq)
        entries;
      match
        Ledger.verify ~expect_head:(Ledger.head t)
          (String.concat "" (List.rev !sunk))
      with
      | Ok s -> s.Ledger.sum_entries = List.length entries
      | Error e -> QCheck.Test.fail_reportf "chain: %s" e.Ledger.ve_reason)

(* --- a real session's ledger ---------------------------------------------- *)

let test_replay_attested () =
  let ledger = Ledger.create () in
  let o =
    Traffic.replay ~shards:2 ~infect_vm:3 ~ledger ~seed:2024L ~requests:300 ()
  in
  check Alcotest.(list string) "oracle violations" [] o.Traffic.to_violations;
  check Alcotest.bool "duplicates coalesced" true (o.Traffic.to_coalesced > 0);
  check Alcotest.int "infection reaches the exit" Exit_code.infected
    o.Traffic.to_exit;
  check Alcotest.int "every response ledgered" o.Traffic.to_responses
    (Ledger.length ledger);
  match Ledger.verify ~expect_head:(Ledger.head ledger) (Ledger.contents ledger)
  with
  | Ok s ->
      check Alcotest.int "chain covers the session" o.Traffic.to_responses
        s.Ledger.sum_entries;
      check Alcotest.bool "the session convicted someone" true
        (List.mem_assoc "infected" s.Ledger.sum_verdicts)
  | Error e -> Alcotest.fail e.Ledger.ve_reason

(* The offline audit the way an auditor meets it: a session's ledger
   streamed to a file verifies against the pinned head, one entry per
   response, and the same file with one byte overwritten does not. *)
let test_replay_ledger_file () =
  let path = Filename.temp_file "modchecker_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  let ledger = Ledger.create ~sink:(output_string oc) () in
  let o = Traffic.replay ~ledger ~seed:2015L ~requests:2000 () in
  close_out oc;
  (match Ledger.verify_file ~expect_head:(Ledger.head ledger) path with
  | Ok s ->
      check Alcotest.int "one entry per response" o.Traffic.to_responses
        s.Ledger.sum_entries
  | Error e -> Alcotest.fail e.Ledger.ve_reason);
  let fd = open_out_gen [ Open_wronly; Open_binary ] 0o600 path in
  seek_out fd 200;
  output_char fd '!';
  close_out fd;
  match Ledger.verify_file path with
  | Ok _ -> Alcotest.fail "a file with byte 200 overwritten verified"
  | Error e -> check Alcotest.int "first entry blamed" 0 e.Ledger.ve_index

let () =
  Alcotest.run "ledger"
    [
      ( "chain",
        [
          Alcotest.test_case "append chains and verifies" `Quick
            test_chain_grows;
          Alcotest.test_case "entry JSON round-trip" `Quick
            test_entry_json_roundtrip;
          Alcotest.test_case "custom sink streams" `Quick test_sink_streams;
          QCheck_alcotest.to_alcotest prop_one_pass_line;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "truncation detected" `Quick
            test_truncation_detected;
          Alcotest.test_case "reorder detected" `Quick test_reorder_detected;
          Alcotest.test_case "dropped entry detected" `Quick
            test_dropped_entry_detected;
          QCheck_alcotest.to_alcotest prop_byte_flip_localized;
          QCheck_alcotest.to_alcotest prop_verify_total;
        ] );
      ( "replay",
        [
          Alcotest.test_case "attested traffic replay" `Quick
            test_replay_attested;
          Alcotest.test_case "ledger file verifies" `Quick
            test_replay_ledger_file;
        ] );
    ]
