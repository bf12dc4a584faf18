(** MD5 message digest (RFC 1321), computed by the OCaml runtime's C MD5.

    Stands in for the paper's OpenSSL MD5, which is C code as well: in
    OCaml 5 [Stdlib.Digest] is MD5, and this module is the one place in
    the program that names it. Only one-shot digests are offered; a caller
    with several pieces hashes their concatenation. Tests check every
    digest against the RFC test vectors and against an OCaml
    implementation of the RFC rounds kept as a reference. *)

type digest = string
(** 16 raw bytes. *)

val digest_bytes : Bytes.t -> digest
(** [digest_bytes b] is the one-shot digest of [b]. *)

val digest_sub : Bytes.t -> int -> int -> digest
(** [digest_sub b off len] is the digest of a slice, without copying it.
    Raises [Invalid_argument] if the range is out of bounds. *)

val digest_string : string -> digest

val to_hex : digest -> string
(** [to_hex d] renders the digest as 32 lowercase hex characters. *)
