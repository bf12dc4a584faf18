module Rng = Mc_util.Rng
module Bytebuf = Mc_util.Bytebuf

type shape =
  | K of Codegen.insn
  | K_push_str of int
  | K_mov_eax_str of int
  | K_load_data of int
  | K_store_data of int
  | K_call_import of int
  | K_call_fn of int

type func = { fn_name : string; fn_shapes : shape list; fn_cave : int }

type word_spec = W_const of int32 | W_ptr_str of int | W_ptr_fn of int

type source = {
  src_name : string;
  src_version : int;
  funcs : func array;
  strings : string array;
  data_words : word_spec array;
  fn_table : int array;
  exports : int array;
  imports : (string * string) list;
  stub_message : string;
}

type built = {
  file : Bytes.t;
  text_rva : int;
  rdata_rva : int;
  data_rva : int;
  edata_rva : int;
  iat_size : int;
  fn_offsets : (string * int) list;
  built_source : source;
}

let known_text_sizes =
  [
    ("ntoskrnl.exe", 0x38000);
    ("hal.dll", 0x20000);
    ("http.sys", 0x40000);
    ("ntfs.sys", 0x30000);
    ("tcpip.sys", 0x2C000);
    ("ndis.sys", 0x18000);
    ("win32k.sys", 0x24000);
    ("disk.sys", 0x6000);
    ("atapi.sys", 0x8000);
    ("hello.sys", 0x800);
    ("dummy.sys", 0x1000);
    ("inject.dll", 0x600);
  ]

let standard_modules =
  [
    "ntoskrnl.exe"; "hal.dll"; "ndis.sys"; "tcpip.sys"; "ntfs.sys";
    "win32k.sys"; "disk.sys"; "atapi.sys"; "http.sys";
  ]

let text_size_of name =
  match List.assoc_opt (String.lowercase_ascii name) known_text_sizes with
  | Some s -> s
  | None -> 0x4000

(* Which modules a driver links against. Test/dummy drivers are
   self-contained, which keeps the paper's experiment-3/4 mismatch sets
   exactly as published. *)
let dependencies_of name =
  if name = "ntoskrnl.exe" then []
  else if name = "hal.dll" then [ "ntoskrnl.exe" ]
  else if List.mem name standard_modules then [ "ntoskrnl.exe"; "hal.dll" ]
  else []

let shape_length = function
  | K i -> Codegen.encoded_length i
  | K_push_str _ | K_mov_eax_str _ | K_load_data _ | K_store_data _
  | K_call_fn _ ->
      5
  | K_call_import _ -> 6

let func_code_length f = List.fold_left (fun a s -> a + shape_length s) 0 f.fn_shapes

let func_total_length f = func_code_length f + f.fn_cave

(* --- generation ------------------------------------------------------- *)

let syllables =
  [| "ker"; "nel"; "dev"; "ice"; "drv"; "io"; "mgr"; "sys"; "net"; "buf";
     "q"; "irp"; "dpc"; "isr"; "ex"; "ob"; "mm"; "ps"; "cm"; "hal" |]

let random_identifier rng =
  let n = Rng.int_in rng 2 4 in
  String.concat "" (List.init n (fun _ -> Rng.pick rng syllables))

let random_string rng =
  let n = Rng.int_in rng 8 40 in
  String.init n (fun _ ->
      let c = Rng.int_in rng 0 63 in
      if c < 26 then Char.chr (Char.code 'a' + c)
      else if c < 52 then Char.chr (Char.code 'A' + c - 26)
      else if c < 62 then Char.chr (Char.code '0' + c - 52)
      else ' ')

(* A random function body: realistic prologue/epilogue around a mix of
   address-carrying and address-free instructions. [n_strings], [n_data],
   [n_imports] and [n_funcs] bound the symbolic operand spaces. *)
let random_body rng ~n_strings ~n_data ~n_imports ~n_funcs ~self =
  let body_len = Rng.int_in rng 8 48 in
  let call_something () =
    (* Prefer an import call when the module has imports; otherwise a
       PC-relative local call. *)
    if n_imports > 0 && Rng.bool rng then K_call_import (Rng.int rng n_imports)
    else K_call_fn (if n_funcs = 0 then self else Rng.int rng (max 1 n_funcs))
  in
  let pick_shape () =
    match Rng.int rng 16 with
    | 0 -> K_push_str (Rng.int rng n_strings)
    | 1 -> K_mov_eax_str (Rng.int rng n_strings)
    | 2 -> K_load_data (Rng.int rng n_data)
    | 3 -> K_store_data (Rng.int rng n_data)
    | 4 | 5 -> call_something ()
    | 6 -> K (Codegen.Mov_eax_imm (Codegen.Imm (Rng.u32 rng)))
    | 7 -> K (Codegen.Mov_ecx_imm (Codegen.Imm (Rng.u32 rng)))
    | 8 -> K Codegen.Xor_eax_eax
    | 9 -> K Codegen.Test_eax_eax
    | 10 -> K (Codegen.Jz_rel8 2)
    | 11 -> K (Codegen.Jnz_rel8 2)
    | 12 -> K (Codegen.Mov_eax_ebp_disp8 (4 * Rng.int_in rng 2 4))
    | 13 -> K Codegen.Inc_eax
    | 14 -> K Codegen.Dec_ecx
    | _ -> K Codegen.Nop
  in
  [ K Codegen.Push_ebp; K Codegen.Mov_ebp_esp ]
  @ List.init body_len (fun _ -> pick_shape ())
  @ [ K Codegen.Pop_ebp; K Codegen.Ret ]

let hal_init_system =
  (* The fixed head of HalInitSystem: prologue, then the DEC ECX that
     experiment 1 rewrites to SUB ECX,1, then enough body for the inline
     hooker to steal whole instructions covering its 5-byte jmp. *)
  [
    K Codegen.Push_ebp;
    K Codegen.Mov_ebp_esp;
    K Codegen.Dec_ecx;
    K_push_str 0;
    K_call_import 0;
    K Codegen.Test_eax_eax;
    K (Codegen.Jz_rel8 2);
    K Codegen.Inc_eax;
    K Codegen.Xor_eax_eax;
    K Codegen.Pop_ebp;
    K Codegen.Ret;
  ]

let source_cache : (string * int, source) Hashtbl.t = Hashtbl.create 16

let rec generate ?(version = 1) name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt source_cache (name, version) with
  | Some s -> s
  | None ->
      let s = generate_uncached ~version name in
      Hashtbl.add source_cache (name, version) s;
      s

and exported_names ~version dep =
  let s = generate ~version dep in
  Array.to_list
    (Array.map (fun i -> s.funcs.(i).fn_name) s.exports)

and generate_uncached ~version name =
  let rng = Rng.of_string (Printf.sprintf "%s#v%d" name version) in
  let text_target = text_size_of name in
  let n_strings = 4 + Rng.int rng 8 in
  let strings =
    Array.init n_strings (fun i ->
        if i = 0 then Printf.sprintf "%s: initialization (v%d)" name version
        else random_string rng)
  in
  (* Imports: a handful of symbols from each dependency's export list. *)
  let imports =
    List.concat_map
      (fun dep ->
        let available = exported_names ~version dep in
        if available = [] then []
        else begin
          let count = Rng.int_in rng 2 (min 6 (List.length available)) in
          let picked = Array.of_list available in
          List.init count (fun _ -> (dep, Rng.pick rng picked))
          |> List.sort_uniq compare
        end)
      (dependencies_of name)
  in
  let n_imports = List.length imports in
  let n_data = 16 + Rng.int rng 48 in
  let is_hal = name = "hal.dll" in
  let funcs = ref [] in
  let n_funcs = ref 0 in
  let text_len = ref 0 in
  let add_func f =
    funcs := f :: !funcs;
    incr n_funcs;
    text_len := !text_len + func_total_length f
  in
  if is_hal then
    add_func
      { fn_name = "HalInitSystem"; fn_shapes = hal_init_system; fn_cave = 48 };
  while !text_len < text_target do
    let fn_name = Printf.sprintf "%s_%d" (random_identifier rng) !n_funcs in
    let fn_shapes =
      random_body rng ~n_strings ~n_data ~n_imports ~n_funcs:!n_funcs
        ~self:!n_funcs
    in
    let fn_cave = Rng.int_in rng 16 48 in
    add_func { fn_name; fn_shapes; fn_cave }
  done;
  let funcs = Array.of_list (List.rev !funcs) in
  let data_words =
    Array.init n_data (fun _ ->
        match Rng.int rng 4 with
        | 0 -> W_ptr_str (Rng.int rng n_strings)
        | 1 -> W_ptr_fn (Rng.int rng (Array.length funcs))
        | _ -> W_const (Rng.u32 rng))
  in
  let fn_table =
    Array.init
      (min (Array.length funcs) (2 + Rng.int rng 6))
      (fun _ -> Rng.int rng (Array.length funcs))
  in
  (* Exports: system modules publish an API surface; the dummy/test
     drivers publish nothing (inject.dll publishes the one function the
     DLL-hooking experiment references). hal.dll always exports
     HalInitSystem. Exported functions get version-stable API names, as
     real system DLLs keep their exported names across updates — otherwise
     a module update would break every importer. *)
  let exports =
    let n_funcs = Array.length funcs in
    let every step limit =
      Array.of_list
        (List.filteri (fun i _ -> i < limit)
           (List.init ((n_funcs + step - 1) / step) (fun i -> i * step)))
    in
    if name = "ntoskrnl.exe" then every 8 48
    else if is_hal then every 16 16
    else if name = "inject.dll" then [| 0 |]
    else if List.mem name standard_modules then every 32 8
    else [||]
  in
  let api_base =
    String.capitalize_ascii (Filename.remove_extension name)
  in
  Array.iteri
    (fun ordinal fi ->
      let stable_name =
        if is_hal && fi = 0 then "HalInitSystem"
        else if name = "inject.dll" then "callMessageBox"
        else Printf.sprintf "%sApi%02d" api_base ordinal
      in
      funcs.(fi) <- { (funcs.(fi)) with fn_name = stable_name })
    exports;
  {
    src_name = name;
    src_version = version;
    funcs;
    strings;
    data_words;
    fn_table;
    exports;
    imports;
    stub_message = Build.default_stub_message;
  }

(* --- layout and emission ---------------------------------------------- *)

let layout_text source =
  let offsets = Array.make (Array.length source.funcs) 0 in
  let cur = ref 0 in
  Array.iteri
    (fun i f ->
      offsets.(i) <- !cur;
      cur := !cur + func_total_length f)
    source.funcs;
  (offsets, !cur)

let align4 v = (v + 3) land lnot 3

let layout_rdata source ~import_blob_size =
  (* Function-pointer table, then NUL-terminated strings, then (aligned)
     the read-only import machinery. *)
  let table_size = 4 * Array.length source.fn_table in
  let str_offsets = Array.make (Array.length source.strings) 0 in
  let cur = ref table_size in
  Array.iteri
    (fun i s ->
      str_offsets.(i) <- !cur;
      cur := !cur + String.length s + 1)
    source.strings;
  let blob_off = align4 !cur in
  (str_offsets, blob_off, blob_off + import_blob_size)

let text_chars = Flags.cnt_code lor Flags.mem_execute lor Flags.mem_read

let rdata_chars = Flags.cnt_initialized_data lor Flags.mem_read

let data_chars =
  Flags.cnt_initialized_data lor Flags.mem_read lor Flags.mem_write

let edata_chars = Flags.cnt_initialized_data lor Flags.mem_read

let build source =
  let fn_offsets, text_size = layout_text source in
  let has_imports = source.imports <> [] in
  let has_exports = Array.length source.exports > 0 in
  (* First pass: sizes only (blob/edata sizes are RVA-independent). *)
  let probe_imports = Import.build ~imports:source.imports ~blob_rva:0 ~iat_rva:0 in
  let import_blob_size = if has_imports then Bytes.length probe_imports.Import.blob else 0 in
  let iat_size = if has_imports then probe_imports.Import.iat_size else 0 in
  let str_offsets, blob_off, rdata_size =
    layout_rdata source ~import_blob_size
  in
  let data_size = iat_size + (4 * Array.length source.data_words) in
  let export_names_with rva_of =
    Array.to_list
      (Array.map
         (fun i -> (source.funcs.(i).fn_name, rva_of i))
         source.exports)
  in
  let edata_size =
    if has_exports then
      Bytes.length
        (Export.build ~module_name:source.src_name
           ~exports:(export_names_with (fun _ -> 0))
           ~edata_rva:0)
    else 0
  in
  let dummy_spec name size characteristics =
    Build.
      {
        spec_name = name;
        spec_data = Bytes.create (max size 1);
        spec_characteristics = characteristics;
        spec_relocs = [];
      }
  in
  let dummy_specs =
    [
      dummy_spec ".text" text_size text_chars;
      dummy_spec ".rdata" rdata_size rdata_chars;
      dummy_spec ".data" data_size data_chars;
    ]
    @ (if has_exports then [ dummy_spec ".edata" edata_size edata_chars ] else [])
  in
  let rvas = Build.layout_rvas dummy_specs in
  let text_rva = List.assoc ".text" rvas in
  let rdata_rva = List.assoc ".rdata" rvas in
  let data_rva = List.assoc ".data" rvas in
  let edata_rva = if has_exports then List.assoc ".edata" rvas else 0 in
  let str_rva i = rdata_rva + str_offsets.(i) in
  let data_word_rva i = data_rva + iat_size + (4 * i) in
  let fn_rva i = text_rva + fn_offsets.(i) in
  (* Second pass: real import machinery at its final addresses. *)
  let imports_built =
    Import.build ~imports:source.imports ~blob_rva:(rdata_rva + blob_off)
      ~iat_rva:data_rva
  in
  let iat_slot_offsets =
    Array.of_list
      (List.map (fun (_, _, off, _) -> off) imports_built.Import.slots)
  in
  (* Emit .text, resolving symbolic operands against the final RVAs. *)
  let buf = Bytebuf.create ~capacity:text_size () in
  let relocs = ref [] in
  let resolve pc = function
    | K i -> i
    | K_push_str i -> Codegen.Push_imm32 (Addr (Mc_util.Le.u32_of_int (str_rva i)))
    | K_mov_eax_str i ->
        Codegen.Mov_eax_imm (Addr (Mc_util.Le.u32_of_int (str_rva i)))
    | K_load_data i ->
        Codegen.Mov_eax_moffs (Addr (Mc_util.Le.u32_of_int (data_word_rva i)))
    | K_store_data i ->
        Codegen.Mov_moffs_eax (Addr (Mc_util.Le.u32_of_int (data_word_rva i)))
    | K_call_import i ->
        (* call through this import's IAT slot *)
        Codegen.Call_ind
          (Addr (Mc_util.Le.u32_of_int (data_rva + iat_slot_offsets.(i))))
    | K_call_fn j ->
        (* rel32 is from the end of the 5-byte call instruction. *)
        Codegen.Call_rel (fn_offsets.(j) - (pc + 5))
  in
  Array.iter
    (fun f ->
      List.iter
        (fun shape ->
          let insn = resolve (Bytebuf.length buf) shape in
          Codegen.encode buf ~relocs insn)
        f.fn_shapes;
      Bytebuf.add_fill buf f.fn_cave 0x00)
    source.funcs;
  let text_data = Bytebuf.contents buf in
  assert (Bytes.length text_data = text_size);
  let text_relocs = List.sort compare !relocs in
  (* Emit .rdata: relocated function-pointer table, strings, import blob. *)
  let rbuf = Bytebuf.create ~capacity:rdata_size () in
  let rdata_relocs = ref [] in
  Array.iter
    (fun i ->
      rdata_relocs := Bytebuf.length rbuf :: !rdata_relocs;
      Bytebuf.add_u32_int rbuf (fn_rva i))
    source.fn_table;
  Array.iter
    (fun s ->
      Bytebuf.add_string rbuf s;
      Bytebuf.add_u8 rbuf 0)
    source.strings;
  Bytebuf.pad_to rbuf blob_off 0;
  if has_imports then Bytebuf.add_bytes rbuf imports_built.Import.blob;
  let rdata_data = Bytebuf.contents rbuf in
  assert (Bytes.length rdata_data = rdata_size);
  (* Emit .data: the IAT (initial hint/name RVAs, bound by the loader at
     load time — not base-relocated), then the data words. *)
  let dbuf = Bytebuf.create ~capacity:data_size () in
  let data_relocs = ref [] in
  if has_imports then begin
    let iat = Bytes.make iat_size '\000' in
    List.iter
      (fun (_, _, off, initial) -> Mc_util.Le.set_u32_int iat off initial)
      imports_built.Import.slots;
    Bytebuf.add_bytes dbuf iat
  end;
  Array.iter
    (fun w ->
      match w with
      | W_const v -> Bytebuf.add_u32 dbuf v
      | W_ptr_str i ->
          data_relocs := Bytebuf.length dbuf :: !data_relocs;
          Bytebuf.add_u32_int dbuf (str_rva i)
      | W_ptr_fn i ->
          data_relocs := Bytebuf.length dbuf :: !data_relocs;
          Bytebuf.add_u32_int dbuf (fn_rva i))
    source.data_words;
  let data_data = Bytebuf.contents dbuf in
  let specs =
    Build.
      [
        {
          spec_name = ".text";
          spec_data = text_data;
          spec_characteristics = text_chars;
          spec_relocs = text_relocs;
        };
        {
          spec_name = ".rdata";
          spec_data = rdata_data;
          spec_characteristics = rdata_chars;
          spec_relocs = List.rev !rdata_relocs;
        };
        {
          spec_name = ".data";
          spec_data = data_data;
          spec_characteristics = data_chars;
          spec_relocs = List.rev !data_relocs;
        };
      ]
    @
    if has_exports then
      [
        Build.
          {
            spec_name = ".edata";
            spec_data =
              Export.build ~module_name:source.src_name
                ~exports:(export_names_with fn_rva) ~edata_rva;
            spec_characteristics = edata_chars;
            spec_relocs = [];
          };
      ]
    else []
  in
  let dirs =
    (if has_exports then
       [ (0, Types.{ dir_rva = edata_rva; dir_size = edata_size }) ]
     else [])
    @
    if has_imports then
      [
        ( Flags.dir_import,
          Types.
            {
              dir_rva = rdata_rva + blob_off + imports_built.Import.descriptors_off;
              dir_size = imports_built.Import.descriptors_size;
            } );
        (12, Types.{ dir_rva = data_rva; dir_size = iat_size });
      ]
    else []
  in
  let timestamp =
    Int32.add 0x4F000000l (Int32.of_int (source.src_version * 86400))
  in
  let file =
    Build.build ~stub_message:source.stub_message ~timestamp
      ~entry_rva:(fn_rva 0) ~dirs specs
  in
  {
    file;
    text_rva;
    rdata_rva;
    data_rva;
    edata_rva;
    iat_size;
    fn_offsets =
      Array.to_list
        (Array.mapi (fun i f -> (f.fn_name, fn_offsets.(i))) source.funcs);
    built_source = source;
  }

(* Reached from engine dispatcher domains and the federation fan-out at
   once; the lock is held across [build] so each key is built exactly
   once and every caller gets the same physical [built]. *)
let cache : (string * int, built) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

let image ?(version = 1) name =
  let key = (String.lowercase_ascii name, version) in
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache key with
      | Some b -> b
      | None ->
          let b = build (generate ~version name) in
          Hashtbl.add cache key b;
          b)

let fn_rva b name =
  match List.assoc_opt name b.fn_offsets with
  | Some off -> b.text_rva + off
  | None -> raise Not_found

let symbols b =
  List.map (fun (name, off) -> (name, b.text_rva + off)) b.fn_offsets
