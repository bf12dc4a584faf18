type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let hex_digit n = "0123456789abcdef".[n]

let add_escaped buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      (* The remaining control characters, as [\u00XX]. *)
      let code = Char.code c in
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (code lsr 4));
      Buffer.add_char buf (hex_digit (code land 0xf))

(* Appends [s] JSON-escaped to [buf]. Runs of bytes that need no escaping
   (most keys and values are one such run) are copied in one go. *)
let escape_into buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      add_escaped buf c;
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

let float_repr f =
  if Float.is_finite f then
    (* Shortest roundtrip-ish representation without exponent noise for
       common magnitudes. *)
    Printf.sprintf "%.12g" f
  else "null"

(* The state of one emitter call. [indent] selects the pretty layout. *)
type emitter = { buf : Buffer.t; indent : bool }

let emitter buf ~indent = { buf; indent }

(* Layout helpers for the pretty form; no-ops when [indent] is false.
   Top-level functions, so [emit] allocates no closure per node. *)
let newline e = if e.indent then Buffer.add_char e.buf '\n'

let pad e level =
  if e.indent then
    for _ = 1 to level do
      Buffer.add_string e.buf "  "
    done

let add_string_value buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let rec emit e level v =
  let buf = e.buf in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_string_value buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      emit_items e (level + 1) item items;
      newline e;
      pad e level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      Buffer.add_char buf '{';
      emit_fields e (level + 1) field fields;
      newline e;
      pad e level;
      Buffer.add_char buf '}'

(* One element per line at [level] (pretty form), comma-separated. *)
and emit_items e level item items =
  newline e;
  pad e level;
  emit e level item;
  match items with
  | [] -> ()
  | next :: rest ->
      Buffer.add_char e.buf ',';
      emit_items e level next rest

and emit_fields e level (key, value) fields =
  newline e;
  pad e level;
  add_string_value e.buf key;
  Buffer.add_string e.buf (if e.indent then ": " else ":");
  emit e level value;
  match fields with
  | [] -> ()
  | next :: rest ->
      Buffer.add_char e.buf ',';
      emit_fields e level next rest

let to_buffer buf v = emit (emitter buf ~indent:false) 0 v

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 256 in
  emit (emitter buf ~indent:true) 0 v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let code =
                     try int_of_string ("0x" ^ String.sub s !pos 4)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* The emitter only escapes control characters; decode
                      the Latin-1 range and reject the rest rather than
                      implementing UTF-8 encoding here. *)
                   if code < 0x100 then Buffer.add_char buf (Char.chr code)
                   else fail "\\u escape beyond latin-1"
               | _ -> fail "unknown escape");
            loop ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg
