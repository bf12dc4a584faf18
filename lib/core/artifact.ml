type kind =
  | Dos_header
  | Nt_header
  | File_header
  | Optional_header
  | Section_header of string
  | Section_data of string

type t = { kind : kind; data : Bytes.t; sec_rva : int }

let kind_name = function
  | Dos_header -> "IMAGE_DOS_HEADER"
  | Nt_header -> "IMAGE_NT_HEADER"
  | File_header -> "IMAGE_FILE_HEADER"
  | Optional_header -> "IMAGE_OPTIONAL_HEADER"
  | Section_header name -> "SECTION_HEADER(" ^ name ^ ")"
  | Section_data name -> name

(* Inverse of [kind_name], for parsing machine-readable reports. Every
   name [kind_name] can emit maps back; anything else is a section name
   (the open case in [kind_name]). *)
let kind_of_name = function
  | "IMAGE_DOS_HEADER" -> Dos_header
  | "IMAGE_NT_HEADER" -> Nt_header
  | "IMAGE_FILE_HEADER" -> File_header
  | "IMAGE_OPTIONAL_HEADER" -> Optional_header
  | s ->
      let prefix = "SECTION_HEADER(" in
      let plen = String.length prefix in
      if
        String.length s > plen + 1
        && String.sub s 0 plen = prefix
        && s.[String.length s - 1] = ')'
      then Section_header (String.sub s plen (String.length s - plen - 1))
      else Section_data s

let equal_kind a b =
  match (a, b) with
  | Dos_header, Dos_header
  | Nt_header, Nt_header
  | File_header, File_header
  | Optional_header, Optional_header ->
      true
  | Section_header x, Section_header y | Section_data x, Section_data y ->
      String.equal x y
  | ( ( Dos_header | Nt_header | File_header | Optional_header
      | Section_header _ | Section_data _ ),
      _ ) ->
      false

let is_section_data t =
  match t.kind with Section_data _ -> true | _ -> false

let find artifacts kind =
  List.find_opt (fun a -> equal_kind a.kind kind) artifacts
