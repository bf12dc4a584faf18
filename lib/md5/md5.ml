(* RFC 1321. State words are kept in OCaml ints and masked to 32 bits; on a
   64-bit host this is exact and avoids Int32 boxing in the hot loop. *)

type digest = string

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

let update_string ctx s = update ctx (Bytes.unsafe_of_string s) 0 (String.length s)

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

let digest_bytes b = digest_sub b 0 (Bytes.length b)

(* Safe despite the unsafe cast: [update] only reads from the buffer. *)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let hex_chars = "0123456789abcdef"

let to_hex d =
  let n = String.length d in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get d i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_chars (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_chars (c land 0xf))
  done;
  Bytes.unsafe_to_string out
