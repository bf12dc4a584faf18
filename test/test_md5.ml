(* MD5 tests. [Md5] is the OCaml runtime's C MD5, so it is checked
   against an independent oracle: the RFC 1321 rounds this repository
   implemented in OCaml before the switch, kept here verbatim as
   [Reference]. Also: the RFC 1321 vectors, the stdlib's [Digest], slice
   range checks, and golden digests pinned before the switch. *)

module Md5 = Mc_md5.Md5

let check = Alcotest.check

(* RFC 1321 in OCaml: the from-scratch implementation [Mc_md5.Md5] used
   to be. State words are kept in OCaml ints and masked to 32 bits; on a
   64-bit host this is exact. *)
module Reference = struct
  let mask = 0xFFFFFFFF

  type ctx = {
    mutable a : int;
    mutable b : int;
    mutable c : int;
    mutable d : int;
    mutable total : int64; (* message length so far, in bytes *)
    block : Bytes.t; (* 64-byte staging buffer *)
    mutable fill : int; (* valid bytes in [block] *)
  }

  let init () =
    {
      a = 0x67452301;
      b = 0xEFCDAB89;
      c = 0x98BADCFE;
      d = 0x10325476;
      total = 0L;
      block = Bytes.create 64;
      fill = 0;
    }

  (* RFC 1321 §3.4's four round steps: [a <- b + ((a + F(b,c,d) + x + t) <<< s)].
     Only the low 32 bits of a sum depend on the low 32 bits of its terms, so
     the auxiliary functions may leave high bits set and a single mask before
     the rotation suffices. *)
  let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let[@inline] ff a b c d x s t =
    (b + rotl ((a + ((b land c) lor (lnot b land d)) + x + t) land mask) s)
    land mask

  let[@inline] gg a b c d x s t =
    (b + rotl ((a + ((b land d) lor (c land lnot d)) + x + t) land mask) s)
    land mask

  let[@inline] hh a b c d x s t =
    (b + rotl ((a + (b lxor c lxor d) + x + t) land mask) s) land mask

  let[@inline] ii a b c d x s t =
    (b + rotl ((a + (c lxor (b lor lnot d)) + x + t) land mask) s) land mask

  (* A top-level function, not a local closure over [buf] and [off]: Closure
     mode would allocate the closure on every block. *)
  let[@inline] word buf off i =
    Int32.to_int (Bytes.get_int32_le buf (off + (4 * i))) land mask

  let transform ctx buf off =
    let x0 = word buf off 0 and x1 = word buf off 1 in
    let x2 = word buf off 2 and x3 = word buf off 3 in
    let x4 = word buf off 4 and x5 = word buf off 5 in
    let x6 = word buf off 6 and x7 = word buf off 7 in
    let x8 = word buf off 8 and x9 = word buf off 9 in
    let x10 = word buf off 10 and x11 = word buf off 11 in
    let x12 = word buf off 12 and x13 = word buf off 13 in
    let x14 = word buf off 14 and x15 = word buf off 15 in
    let a = ctx.a and b = ctx.b and c = ctx.c and d = ctx.d in
    let a = ff a b c d x0 7 0xd76aa478 in
    let d = ff d a b c x1 12 0xe8c7b756 in
    let c = ff c d a b x2 17 0x242070db in
    let b = ff b c d a x3 22 0xc1bdceee in
    let a = ff a b c d x4 7 0xf57c0faf in
    let d = ff d a b c x5 12 0x4787c62a in
    let c = ff c d a b x6 17 0xa8304613 in
    let b = ff b c d a x7 22 0xfd469501 in
    let a = ff a b c d x8 7 0x698098d8 in
    let d = ff d a b c x9 12 0x8b44f7af in
    let c = ff c d a b x10 17 0xffff5bb1 in
    let b = ff b c d a x11 22 0x895cd7be in
    let a = ff a b c d x12 7 0x6b901122 in
    let d = ff d a b c x13 12 0xfd987193 in
    let c = ff c d a b x14 17 0xa679438e in
    let b = ff b c d a x15 22 0x49b40821 in
    let a = gg a b c d x1 5 0xf61e2562 in
    let d = gg d a b c x6 9 0xc040b340 in
    let c = gg c d a b x11 14 0x265e5a51 in
    let b = gg b c d a x0 20 0xe9b6c7aa in
    let a = gg a b c d x5 5 0xd62f105d in
    let d = gg d a b c x10 9 0x02441453 in
    let c = gg c d a b x15 14 0xd8a1e681 in
    let b = gg b c d a x4 20 0xe7d3fbc8 in
    let a = gg a b c d x9 5 0x21e1cde6 in
    let d = gg d a b c x14 9 0xc33707d6 in
    let c = gg c d a b x3 14 0xf4d50d87 in
    let b = gg b c d a x8 20 0x455a14ed in
    let a = gg a b c d x13 5 0xa9e3e905 in
    let d = gg d a b c x2 9 0xfcefa3f8 in
    let c = gg c d a b x7 14 0x676f02d9 in
    let b = gg b c d a x12 20 0x8d2a4c8a in
    let a = hh a b c d x5 4 0xfffa3942 in
    let d = hh d a b c x8 11 0x8771f681 in
    let c = hh c d a b x11 16 0x6d9d6122 in
    let b = hh b c d a x14 23 0xfde5380c in
    let a = hh a b c d x1 4 0xa4beea44 in
    let d = hh d a b c x4 11 0x4bdecfa9 in
    let c = hh c d a b x7 16 0xf6bb4b60 in
    let b = hh b c d a x10 23 0xbebfbc70 in
    let a = hh a b c d x13 4 0x289b7ec6 in
    let d = hh d a b c x0 11 0xeaa127fa in
    let c = hh c d a b x3 16 0xd4ef3085 in
    let b = hh b c d a x6 23 0x04881d05 in
    let a = hh a b c d x9 4 0xd9d4d039 in
    let d = hh d a b c x12 11 0xe6db99e5 in
    let c = hh c d a b x15 16 0x1fa27cf8 in
    let b = hh b c d a x2 23 0xc4ac5665 in
    let a = ii a b c d x0 6 0xf4292244 in
    let d = ii d a b c x7 10 0x432aff97 in
    let c = ii c d a b x14 15 0xab9423a7 in
    let b = ii b c d a x5 21 0xfc93a039 in
    let a = ii a b c d x12 6 0x655b59c3 in
    let d = ii d a b c x3 10 0x8f0ccc92 in
    let c = ii c d a b x10 15 0xffeff47d in
    let b = ii b c d a x1 21 0x85845dd1 in
    let a = ii a b c d x8 6 0x6fa87e4f in
    let d = ii d a b c x15 10 0xfe2ce6e0 in
    let c = ii c d a b x6 15 0xa3014314 in
    let b = ii b c d a x13 21 0x4e0811a1 in
    let a = ii a b c d x4 6 0xf7537e82 in
    let d = ii d a b c x11 10 0xbd3af235 in
    let c = ii c d a b x2 15 0x2ad7d2bb in
    let b = ii b c d a x9 21 0xeb86d391 in
    ctx.a <- (ctx.a + a) land mask;
    ctx.b <- (ctx.b + b) land mask;
    ctx.c <- (ctx.c + c) land mask;
    ctx.d <- (ctx.d + d) land mask

  let update ctx buf off len =
    if off < 0 || len < 0 || off + len > Bytes.length buf then
      invalid_arg "Md5.update: range out of bounds";
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let off = ref off and len = ref len in
    (* Top up a partially filled staging block first. *)
    if ctx.fill > 0 then begin
      let take = min !len (64 - ctx.fill) in
      Bytes.blit buf !off ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      off := !off + take;
      len := !len - take;
      if ctx.fill = 64 then begin
        transform ctx ctx.block 0;
        ctx.fill <- 0
      end
    end;
    while !len >= 64 do
      transform ctx buf !off;
      off := !off + 64;
      len := !len - 64
    done;
    if !len > 0 then begin
      Bytes.blit buf !off ctx.block ctx.fill !len;
      ctx.fill <- ctx.fill + !len
    end

  let final ctx =
    let bit_len = Int64.mul ctx.total 8L in
    let pad_len =
      let rem = Int64.to_int (Int64.rem ctx.total 64L) in
      if rem < 56 then 56 - rem else 120 - rem
    in
    let padding = Bytes.make pad_len '\000' in
    Bytes.set padding 0 '\x80';
    update ctx padding 0 pad_len;
    let tail = Bytes.create 8 in
    Bytes.set_int64_le tail 0 bit_len;
    update ctx tail 0 8;
    assert (ctx.fill = 0);
    let out = Bytes.create 16 in
    Bytes.set_int32_le out 0 (Int32.of_int ctx.a);
    Bytes.set_int32_le out 4 (Int32.of_int ctx.b);
    Bytes.set_int32_le out 8 (Int32.of_int ctx.c);
    Bytes.set_int32_le out 12 (Int32.of_int ctx.d);
    Bytes.unsafe_to_string out

  let digest_sub b off len =
    let ctx = init () in
    update ctx b off len;
    final ctx

  let digest_string s =
    digest_sub (Bytes.unsafe_of_string s) 0 (String.length s)
end

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
        (Md5.to_hex (Md5.digest_string input));
      check Alcotest.string ("reference: " ^ input) expected
        (Md5.to_hex (Reference.digest_string input)))
    rfc_vectors

(* [Md5], the stdlib's [Digest] and the OCaml reference agree on [b]'s
   slice: the reference is checked against the runtime too, so a broken
   oracle cannot pass silently. *)
let agree what b off len =
  let want = Md5.to_hex (Reference.digest_sub b off len) in
  check Alcotest.string (what ^ ": Digest") want
    (Digest.to_hex (Digest.subbytes b off len));
  check Alcotest.string (what ^ ": Md5") want
    (Md5.to_hex (Md5.digest_sub b off len))

let test_against_stdlib () =
  let rng = Mc_util.Rng.create 77L in
  for _ = 1 to 50 do
    let n = Mc_util.Rng.int rng 5000 in
    let b = Mc_util.Rng.bytes rng n in
    agree (Printf.sprintf "%d bytes" n) b 0 n
  done

let test_digest_sub () =
  let b = Bytes.of_string "xxabcyy" in
  check Alcotest.string "sub slice digest"
    (Md5.to_hex (Md5.digest_string "abc"))
    (Md5.to_hex (Md5.digest_sub b 2 3))

let test_digest_sub_bounds () =
  let b = Bytes.create 4 in
  List.iter
    (fun (off, len) ->
      match Md5.digest_sub b off len with
      | _ -> Alcotest.failf "digest_sub b %d %d on 4 bytes did not raise" off len
      | exception Invalid_argument _ -> ())
    [ (2, 3); (-1, 2); (0, -1); (5, 0); (0, 5); (1, max_int) ];
  check Alcotest.string "empty slice at the end"
    (Md5.to_hex (Md5.digest_string ""))
    (Md5.to_hex (Md5.digest_sub b 4 0))

let test_block_boundaries () =
  (* Lengths around the 56/64-byte padding boundary are the classic MD5
     bug farm. *)
  List.iter
    (fun n ->
      agree (Printf.sprintf "len %d" n) (Bytes.make n 'q') 0 n)
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* Every length through four blocks, so each padding edge (55/56, 63/64,
   119/120) and every partial-block fill is exercised on varied bytes. *)
let test_length_sweep () =
  let data = Bytes.init 256 (fun i -> Char.chr (((i * 131) + 7) land 0xFF)) in
  for n = 0 to 256 do
    agree (Printf.sprintf "len %d" n) data 0 n
  done

let test_large_input () =
  let b = Bytes.make 1_000_000 '\xAB' in
  agree "1MB" b 0 1_000_000

(* Hashing 1 MiB allocates only the 16-byte digest: the bytes are read in
   place, never copied. *)
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
    hex;
  check Alcotest.string "same bytes as Digest.to_hex" (Digest.to_hex d) hex

(* Property: a slice at a random offset hashes as the reference does, for
   lengths up to 70,000 bytes (17 Merkle pages) with the padding edges
   weighted up. The bytes come from a seeded generator rather than QCheck's
   char-by-char strings, which would dominate the run time at this size. *)
let prop_reference =
  let edges = [ 0; 55; 56; 63; 64; 119; 120 ] in
  let gen =
    QCheck.Gen.(
      triple (map Int64.of_int nat) (int_bound 100)
        (frequency
           [
             (2, oneofl edges);
             (1, map (fun e -> e + 64) (oneofl edges));
             (3, int_bound 300);
             (2, int_bound 70_000);
           ]))
  in
  QCheck.Test.make ~count:200 ~name:"md5 slice == RFC reference"
    (QCheck.make ~print:QCheck.Print.(triple Int64.to_string int int) gen)
    (fun (seed, off, len) ->
      let rng = Mc_util.Rng.create seed in
      let b = Mc_util.Rng.bytes rng (off + len + Mc_util.Rng.int rng 64) in
      Md5.digest_sub b off len = Reference.digest_sub b off len)

let prop_stdlib =
  QCheck.Test.make ~count:200 ~name:"md5 agrees with stdlib Digest"
    QCheck.string (fun s ->
      let want = Digest.to_hex (Digest.string s) in
      Md5.to_hex (Md5.digest_string s) = want
      && Md5.to_hex (Reference.digest_string s) = want)

(* --- golden digests ------------------------------------------------------- *)

(* Values captured with the OCaml rounds, before [Md5] moved to the runtime's
   C MD5: the switch must leave every Merkle print and ledger hash as it
   was. *)

let test_golden_print () =
  let module Cloud = Mc_hypervisor.Cloud in
  let module Orchestrator = Modchecker.Orchestrator in
  let module_name = "hal.dll" in
  let cloud = Cloud.create ~vms:15 ~seed:21L () in
  let inc = Orchestrator.create_incremental () in
  let config = Orchestrator.Config.(default |> with_incremental inc) in
  ignore (Orchestrator.survey ~config cloud ~module_name);
  let print vm =
    match
      Modchecker.Digest_cache.peek inc.Orchestrator.inc_merkle ~vm
        ~key:module_name
        ~epoch:(Mc_hypervisor.Xenctl.memory_epoch (Cloud.vm cloud vm))
    with
    | Some (Some mp) -> mp
    | _ -> Alcotest.failf "no cached print for Dom%d" (vm + 1)
  in
  check
    Alcotest.(list (pair string string))
    "Dom1 fingerprint"
    [
      (".edata", "0d91d97c509cb9ff52bff3abe20232dc");
      (".rdata", "11f5840bc7de31fa2a460ca308e3e3aa");
      (".text", "19d39fce3abdcf6af4041a2d2e42ba90");
      ("IMAGE_DOS_HEADER", "f472b4ae02e5956f4f25ccfd6ecfda4b");
      ("IMAGE_FILE_HEADER", "f9117f8328095e6a9aa6f34b176243ba");
      ("IMAGE_NT_HEADER", "2c9e42f0c4f2606307562b950590ccbd");
      ("IMAGE_OPTIONAL_HEADER", "4d869ecde6d86fe63505e008a6fa146f");
      ("SECTION_HEADER(.data)", "3c84bf895e0e6cef96ec1eed82289f2e");
      ("SECTION_HEADER(.edata)", "459be60de3b6ff6a9c45b156e173c1c2");
      ("SECTION_HEADER(.rdata)", "53d8982f6a7993b4b39d6269afd23fce");
      ("SECTION_HEADER(.reloc)", "c2f2a92b9be20e6cebedb9b04cdf4152");
      ("SECTION_HEADER(.text)", "b9a285bcd7b34c5f292402fcc89df909");
    ]
    (print 0).Orchestrator.mp_fingerprint;
  for vm = 0 to 14 do
    check Alcotest.string
      (Printf.sprintf "Dom%d root" (vm + 1))
      "b9ba18b11bec191e53ee2990b9f5c762" (print vm).Orchestrator.mp_root
  done

let test_golden_ledger () =
  let t = Mc_ledger.create () in
  for i = 0 to 9 do
    ignore
      (Mc_ledger.append t
         ~key:(Printf.sprintf "check:%d:hal.dll" i)
         ~verdict:(if i = 7 then "infected" else "intact")
         ~surveyed:15
         ~responded:(15 - (i mod 2))
         ?root:
           (if i mod 3 = 0 then
              Some (Md5.to_hex (Md5.digest_string (string_of_int i)))
            else None)
         ~meter:
           (if i mod 4 = 0 then []
            else [ ("bytes_hashed", 4096 * i); ("pages_mapped", i) ])
         ~body:(String.make (100 * i) (Char.chr (65 + i)))
         ())
  done;
  check Alcotest.string "head after 10 appends"
    "846c1f46663f2452cec0a9b3fcfceac0" (Mc_ledger.head t)

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
          Alcotest.test_case "digest_sub" `Quick test_digest_sub;
          Alcotest.test_case "bounds" `Quick test_digest_sub_bounds;
          Alcotest.test_case "hex format" `Quick test_to_hex_format;
        ] );
      ( "golden",
        [
          Alcotest.test_case "hal.dll print on 15 VMs" `Quick test_golden_print;
          Alcotest.test_case "ledger head after fixed appends" `Quick
            test_golden_ledger;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_reference; prop_stdlib ] );
    ]
