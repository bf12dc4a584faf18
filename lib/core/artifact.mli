(** The hashable artifacts Module-Parser extracts from a module.

    Following §IV-B, a module decomposes into its headers and the data of
    its read-only/executable sections; each artifact is hashed separately
    so a mismatch pinpoints {e what} changed (experiment 3 flags only the
    DOS header; experiment 1 only .text). *)

type kind =
  | Dos_header
      (** Bytes [0, e_lfanew): IMAGE_DOS_HEADER plus the DOS stub. *)
  | Nt_header
      (** Signature + FILE + OPTIONAL as one blob (IMAGE_NT_HEADERS). *)
  | File_header
  | Optional_header
  | Section_header of string  (** One 40-byte header, by section name. *)
  | Section_data of string
      (** The in-memory data of one hashable section. *)

type t = {
  kind : kind;
  data : Bytes.t;
  sec_rva : int;
      (** For [Section_data]: the section's RVA (a golden slot table
          strips the section only when it was built for this RVA); 0 for
          headers. *)
}

val kind_name : kind -> string
(** [kind_name k] is a stable display name, e.g. ["IMAGE_DOS_HEADER"],
    ["SECTION_HEADER(.text)"], [".text"]. *)

val kind_of_name : string -> kind
(** Inverse of {!kind_name} on every name it emits; an unrecognized name
    parses as [Section_data name] (section names are the open case). *)

val equal_kind : kind -> kind -> bool

val is_section_data : t -> bool

val find : t list -> kind -> t option
