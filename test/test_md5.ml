(* MD5 tests: RFC 1321 vectors, cross-validation against the stdlib's
   Digest (also MD5), and streaming-equivalence properties. *)

module Md5 = Mc_md5.Md5

let check = Alcotest.check

(* RFC 1321 appendix A.5 test suite. *)
let rfc_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_rfc_vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected
        (Md5.to_hex (Md5.digest_string input)))
    rfc_vectors

let test_against_stdlib () =
  let rng = Mc_util.Rng.create 77L in
  for _ = 1 to 50 do
    let n = Mc_util.Rng.int rng 5000 in
    let b = Mc_util.Rng.bytes rng n in
    check Alcotest.string
      (Printf.sprintf "agrees with Digest on %d bytes" n)
      (Digest.to_hex (Digest.bytes b))
      (Md5.to_hex (Md5.digest_bytes b))
  done

let test_streaming_equals_oneshot () =
  let rng = Mc_util.Rng.create 78L in
  for _ = 1 to 30 do
    let n = 1 + Mc_util.Rng.int rng 4096 in
    let b = Mc_util.Rng.bytes rng n in
    let ctx = Md5.init () in
    (* Feed in random-sized chunks. *)
    let pos = ref 0 in
    while !pos < n do
      let chunk = min (n - !pos) (1 + Mc_util.Rng.int rng 200) in
      Md5.update ctx b !pos chunk;
      pos := !pos + chunk
    done;
    check Alcotest.string "chunked == one-shot"
      (Md5.to_hex (Md5.digest_bytes b))
      (Md5.to_hex (Md5.final ctx))
  done

let test_digest_sub () =
  let b = Bytes.of_string "xxabcyy" in
  check Alcotest.string "sub slice digest"
    (Md5.to_hex (Md5.digest_string "abc"))
    (Md5.to_hex (Md5.digest_sub b 2 3))

let test_update_bounds () =
  let ctx = Md5.init () in
  Alcotest.check_raises "range check"
    (Invalid_argument "Md5.update: range out of bounds") (fun () ->
      Md5.update ctx (Bytes.create 4) 2 3)

let test_block_boundaries () =
  (* Lengths around the 56/64-byte padding boundary are the classic MD5
     bug farm. *)
  List.iter
    (fun n ->
      let s = String.make n 'q' in
      check Alcotest.string
        (Printf.sprintf "len %d" n)
        (Digest.to_hex (Digest.string s))
        (Md5.to_hex (Md5.digest_string s)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* Every length through four blocks, so each padding edge (55/56, 63/64,
   119/120) and every partial-block fill is exercised on varied bytes. *)
let test_length_sweep () =
  let data = Bytes.init 256 (fun i -> Char.chr (((i * 131) + 7) land 0xFF)) in
  for n = 0 to 256 do
    check Alcotest.string
      (Printf.sprintf "len %d" n)
      (Digest.to_hex (Digest.subbytes data 0 n))
      (Md5.to_hex (Md5.digest_sub data 0 n))
  done

let test_large_input () =
  let b = Bytes.make 1_000_000 '\xAB' in
  check Alcotest.string "1MB agrees with stdlib"
    (Digest.to_hex (Digest.bytes b))
    (Md5.to_hex (Md5.digest_bytes b))

(* The block transform allocates nothing: hashing 1 MiB (16,384 blocks)
   costs only the context, the padding and the digest. *)
let test_no_per_block_allocation () =
  let b = Bytes.make (1 lsl 20) '\x5A' in
  ignore (Md5.digest_bytes b);
  let before = Gc.minor_words () in
  ignore (Md5.digest_bytes b);
  let words = Gc.minor_words () -. before in
  if words >= 1000. then
    Alcotest.failf "hashing 1 MiB allocated %.0f minor words (limit 1000)" words

let test_to_hex_format () =
  let d = Md5.digest_string "abc" in
  check Alcotest.int "digest is 16 raw bytes" 16 (String.length d);
  let hex = Md5.to_hex d in
  check Alcotest.int "hex is 32 chars" 32 (String.length hex);
  String.iter
    (fun c ->
      Alcotest.(check bool) "lowercase hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    hex

(* Property: update is associative over concatenation. *)
let prop_concat =
  QCheck.Test.make ~count:200 ~name:"md5 (a ^ b) == stream a then b"
    QCheck.(pair string string)
    (fun (a, b) ->
      let ctx = Md5.init () in
      Md5.update_string ctx a;
      Md5.update_string ctx b;
      Md5.final ctx = Md5.digest_string (a ^ b))

(* Property: however the input is cut into [update] calls, the digest is
   the one-shot digest. *)
let prop_cut_points =
  QCheck.Test.make ~count:300 ~name:"md5 any cut points == one-shot"
    QCheck.(pair (string_of_size Gen.(0 -- 600)) (small_list small_nat))
    (fun (s, cuts) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cuts = List.sort_uniq compare (List.map (fun c -> min c n) cuts) in
      let ctx = Md5.init () in
      let last =
        List.fold_left
          (fun pos c ->
            Md5.update ctx b pos (c - pos);
            c)
          0 cuts
      in
      Md5.update ctx b last (n - last);
      Md5.final ctx = Md5.digest_bytes b)

let prop_stdlib =
  QCheck.Test.make ~count:200 ~name:"md5 agrees with stdlib Digest"
    QCheck.string (fun s ->
      Md5.to_hex (Md5.digest_string s) = Digest.to_hex (Digest.string s))

let () =
  Alcotest.run "md5"
    [
      ( "vectors",
        [
          Alcotest.test_case "rfc 1321" `Quick test_rfc_vectors;
          Alcotest.test_case "vs stdlib random" `Quick test_against_stdlib;
          Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
          Alcotest.test_case "length sweep 0-256" `Quick test_length_sweep;
          Alcotest.test_case "1MB" `Quick test_large_input;
          Alcotest.test_case "no per-block allocation" `Quick
            test_no_per_block_allocation;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunked" `Quick test_streaming_equals_oneshot;
          Alcotest.test_case "digest_sub" `Quick test_digest_sub;
          Alcotest.test_case "bounds" `Quick test_update_bounds;
          Alcotest.test_case "hex format" `Quick test_to_hex_format;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_concat; prop_cut_points; prop_stdlib ] );
    ]
