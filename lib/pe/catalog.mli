(** Synthetic Windows XP driver catalog.

    Stands in for the paper's real module files ([hal.dll], [http.sys],
    [dummy.sys], ...). [generate] derives a fully concrete, deterministic
    module description from the module name (and a version number, for the
    update/staleness experiments); [build] lays it out as a PE32 file with
    .text / .rdata / .data / .reloc sections. Every VM clones the same files,
    so the on-disk images are identical across the cloud — exactly the
    paper's "15 VM clones from a single installation".

    Characteristic content the experiments rely on:
    - [hal.dll] exports [HalInitSystem] as its first function, beginning
      with the prologue + [DEC ECX] sequence experiments 1 and 2 patch;
    - every .text has inter-function opcode caves (zero runs) large enough
      for an inline-hook payload;
    - .rdata carries a relocated function-pointer table and the driver's
      strings, so RVA adjustment is exercised on non-code data too;
    - .data (writable, unhashed) starts with the import address table the
      loader binds, followed by plain data words; [FF 15] call sites go
      through the IAT;
    - system modules carry real import tables (hint/names and descriptors
      in read-only .rdata, IAT in writable .data) naming symbols exported
      by ntoskrnl.exe/hal.dll through genuine .edata export
      directories. *)

type shape =
  | K of Codegen.insn  (** A concrete instruction. *)
  | K_push_str of int  (** [push offset string_i] *)
  | K_mov_eax_str of int  (** [mov eax, offset string_i] *)
  | K_load_data of int  (** [mov eax, [data_word_i]] *)
  | K_store_data of int  (** [mov [data_word_i], eax] *)
  | K_call_import of int  (** [call dword ptr [data_word_i]] *)
  | K_call_fn of int  (** [call function_i] — PC-relative. *)

type func = { fn_name : string; fn_shapes : shape list; fn_cave : int }

type word_spec =
  | W_const of int32
  | W_ptr_str of int  (** Holds the RVA of a string; base-relocated. *)
  | W_ptr_fn of int  (** Holds the RVA of a function; base-relocated. *)

type source = {
  src_name : string;
  src_version : int;
  funcs : func array;
  strings : string array;
  data_words : word_spec array;
  fn_table : int array;
      (** Function indices exposed through the .rdata pointer table. *)
  exports : int array;
      (** Function indices published in the export directory (.edata);
          empty for the self-contained test drivers. *)
  imports : (string * string) list;
      (** (dll, symbol) pairs resolved by the loader into the IAT; system
          modules import from ntoskrnl.exe/hal.dll. *)
  stub_message : string;
}

type built = {
  file : Bytes.t;  (** The complete PE32 file image. *)
  text_rva : int;
  rdata_rva : int;
  data_rva : int;
  edata_rva : int;  (** 0 when the module exports nothing. *)
  iat_size : int;  (** Bytes of import address table at the head of .data. *)
  fn_offsets : (string * int) list;  (** Function offsets within .text. *)
  built_source : source;
}

val generate : ?version:int -> string -> source
(** [generate name] is the deterministic module description for [name];
    well-known names get realistic text-section sizes. *)

val build : source -> built
(** [build source] lays the module out; pure in [source]. *)

val image : ?version:int -> string -> built
(** [image name] memoizes [build (generate name)]. Safe to call from
    several domains at once: each (lowercased name, version) is built once
    and always returns the same physical value. *)

val fn_rva : built -> string -> int
(** [fn_rva b name] is the RVA of the named function.
    Raises [Not_found] if absent. *)

val symbols : built -> (string * int) list
(** [symbols b] is the module's debug-symbol view: every function name with
    its RVA, in ascending RVA order — what a PDB would provide. Used by the
    dAnubis-style patched-function pinpointing. *)

val standard_modules : string list
(** Module names loaded by every booted guest, in load order. *)

val text_size_of : string -> int
(** [text_size_of name] is the target .text size used for [name]. *)
