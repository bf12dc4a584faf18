(* RFC 1321 through the OCaml runtime's C MD5: in OCaml 5 [Stdlib.Digest]
   is MD5 ([caml_md5_string]), hashing the bytes in place. *)

type digest = string

let digest_sub b off len = Digest.subbytes b off len

let digest_bytes b = Digest.bytes b

let digest_string s = Digest.string s

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
