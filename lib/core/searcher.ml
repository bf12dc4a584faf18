module Vmi = Mc_vmi.Vmi
module Meter = Mc_hypervisor.Meter
module Layout = Mc_winkernel.Layout
module L = Layout.Ldr_entry
module U = Layout.Unicode_string
module Unicode = Mc_winkernel.Unicode
module Le = Mc_util.Le

type module_info = {
  mi_name : string;
  mi_full_name : string;
  mi_base : int;
  mi_size : int;
  mi_entry_va : int;
}

let bump meter f = match meter with Some m -> f m | None -> ()

(* Decode a UNICODE_STRING through VMI: the descriptor bytes are already in
   [entry_bytes]; the buffer needs its own read. *)
let read_name ?meter vmi entry_bytes off =
  let length = Bytes.get_uint16_le entry_bytes (off + U.length) in
  let buffer_va = Le.get_u32_int entry_bytes (off + U.buffer) in
  if length = 0 || buffer_va = 0 then ""
  else begin
    bump meter (fun m -> Meter.add_struct_reads m 1);
    match Vmi.try_read_va vmi buffer_va length with
    | Some b -> Unicode.ascii_of_utf16le b
    | None -> ""
  end

let read_entry ?meter vmi entry_va =
  bump meter (fun m -> Meter.add_struct_reads m 1);
  let bytes = Vmi.read_va vmi entry_va L.size in
  let u32 off = Le.get_u32_int bytes off in
  ( {
      mi_name = read_name ?meter vmi bytes L.base_dll_name;
      mi_full_name = read_name ?meter vmi bytes L.full_dll_name;
      mi_base = u32 L.dll_base;
      mi_size = u32 L.size_of_image;
      mi_entry_va = entry_va;
    },
    u32 L.in_load_order_links_flink )

(* The walk must survive a hostile or mis-profiled guest: a wrong symbol
   address reads zeros, DKOM malware can splice the links into a cycle or
   point them at unmapped memory. An unreadable node, a null link or a
   link to an entry already visited ends the walk with whatever was
   collected, so every entry is read at most once; the budget bounds how
   many distinct entries a forged list can make it read. *)
let fold_modules ?meter vmi ~init ~f =
  let head_va = Vmi.read_ksym vmi "PsLoadedModuleList" in
  bump meter (fun m -> Meter.add_struct_reads m 1);
  match Vmi.try_read_va vmi head_va 4 with
  | None -> init
  | Some first_bytes ->
      let first = Le.get_u32_int first_bytes 0 in
      let visited = Hashtbl.create 64 in
      let rec loop va budget acc =
        if va = head_va || va = 0 || budget = 0 || Hashtbl.mem visited va then
          acc
        else begin
          Hashtbl.add visited va ();
          match read_entry ?meter vmi va with
          | exception Vmi.Invalid_address _ -> acc
          | info, flink -> (
              match f acc info with
              | `Stop acc -> acc
              | `Continue acc -> loop flink (budget - 1) acc)
        end
      in
      loop first 4096 init

let list_modules ?meter vmi =
  List.rev
    (fold_modules ?meter vmi ~init:[] ~f:(fun acc info ->
         `Continue (info :: acc)))

let find_module ?meter vmi ~name =
  fold_modules ?meter vmi ~init:None ~f:(fun acc info ->
      if Unicode.equal_ascii_ci info.mi_name name then `Stop (Some info)
      else `Continue acc)

(* Sanity cap on SizeOfImage: a corrupted LDR entry must not make Dom0
   allocate gigabytes. Real drivers are a few MiB at most. *)
let max_module_size = 64 * 1024 * 1024

(* §IV-A: "copies the whole module from the virtual machine's memory to a
   local buffer". Vmi reads page by page straight into that buffer and
   meters the page maps and bytes. *)
let copy_module ?(buffer = Bytes.create) vmi info =
  if info.mi_size <= 0 || info.mi_size > max_module_size then
    invalid_arg
      (Printf.sprintf "Searcher.copy_module: implausible SizeOfImage 0x%x"
         info.mi_size);
  let dst = buffer info.mi_size in
  if Bytes.length dst <> info.mi_size then
    invalid_arg "Searcher.copy_module: buffer is not SizeOfImage bytes";
  Vmi.read_va_padded_into vmi info.mi_base dst;
  dst

let fetch ?meter ?buffer vmi ~name =
  match find_module ?meter vmi ~name with
  | None -> None
  | Some info -> (
      match copy_module ?buffer vmi info with
      | buf -> Some (info, buf)
      | exception Invalid_argument _ -> None)
