module Json = Mc_util.Json
module Md5 = Mc_md5.Md5

type entry = {
  en_seq : int;
  en_key : string;
  en_verdict : string;
  en_surveyed : int;
  en_responded : int;
  en_root : string option;
  en_meter : (string * int) list;
  en_body_md5 : string;
  en_prev : string;
  en_hash : string;
}

let schema = "modchecker/ledger@1"

let md5_hex s = Md5.to_hex (Md5.digest_string s)

let genesis = md5_hex schema

(* The chain hash covers exactly this canonical rendering: field order is
   fixed, the emitter is deterministic, and no field is a float — so a
   parsed entry re-serializes byte-identically and verification never
   depends on JSON canonicalization subtleties. *)
let payload_json e =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("seq", Json.Int e.en_seq);
      ("key", Json.String e.en_key);
      ("verdict", Json.String e.en_verdict);
      ("surveyed", Json.Int e.en_surveyed);
      ("responded", Json.Int e.en_responded);
      ( "root",
        match e.en_root with None -> Json.Null | Some r -> Json.String r );
      ("meter", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.en_meter));
      ("body_md5", Json.String e.en_body_md5);
      ("prev", Json.String e.en_prev);
    ]

let chain_hash ~prev payload_line = md5_hex (prev ^ payload_line)

let entry_to_json e =
  match payload_json e with
  | Json.Obj fields -> Json.Obj (fields @ [ ("hash", Json.String e.en_hash) ])
  | _ -> assert false

let entry_line e = Json.to_string (entry_to_json e)

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* fields =
    match j with
    | Json.Obj fields -> Ok fields
    | _ -> Error "ledger entry: expected an object"
  in
  let field name =
    match List.assoc_opt name fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "ledger entry: missing field %S" name)
  in
  let str name =
    let* v = field name in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "ledger entry: field %S must be a string" name)
  in
  let int name =
    let* v = field name in
    match v with
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "ledger entry: field %S must be an int" name)
  in
  let* tag = str "schema" in
  let* () =
    if String.equal tag schema then Ok ()
    else Error (Printf.sprintf "ledger entry: schema %S, expected %S" tag schema)
  in
  let* en_seq = int "seq" in
  let* en_key = str "key" in
  let* en_verdict = str "verdict" in
  let* en_surveyed = int "surveyed" in
  let* en_responded = int "responded" in
  let* en_root =
    let* v = field "root" in
    match v with
    | Json.Null -> Ok None
    | Json.String s -> Ok (Some s)
    | _ -> Error "ledger entry: field \"root\" must be a string or null"
  in
  let* en_meter =
    let* v = field "meter" in
    match v with
    | Json.Obj pairs ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Json.Int i -> Ok ((k, i) :: acc)
            | _ -> Error "ledger entry: meter counts must be ints")
          (Ok []) pairs
        |> Result.map List.rev
    | _ -> Error "ledger entry: field \"meter\" must be an object"
  in
  let* en_body_md5 = str "body_md5" in
  let* en_prev = str "prev" in
  let* en_hash = str "hash" in
  Ok
    {
      en_seq;
      en_key;
      en_verdict;
      en_surveyed;
      en_responded;
      en_root;
      en_meter;
      en_body_md5;
      en_prev;
      en_hash;
    }

type t = {
  sink : string -> unit;
  buf : Buffer.t option;  (** [None] when a custom sink was given. *)
  mutable count : int;
  mutable head : string;
}

let create ?sink () =
  match sink with
  | Some sink -> { sink; buf = None; count = 0; head = genesis }
  | None ->
      let buf = Buffer.create 4096 in
      {
        sink = Buffer.add_string buf;
        buf = Some buf;
        count = 0;
        head = genesis;
      }

let append t ~key ~verdict ~surveyed ~responded ?root ~meter ~body () =
  let e =
    {
      en_seq = t.count;
      en_key = key;
      en_verdict = verdict;
      en_surveyed = surveyed;
      en_responded = responded;
      en_root = root;
      en_meter = meter;
      en_body_md5 = md5_hex body;
      en_prev = t.head;
      en_hash = "";
    }
  in
  (* Serialise once: the payload is what the chain hash covers, and the
     line is the payload with its closing brace replaced by the trailing
     [hash] field — the bytes [entry_line] renders, without re-walking
     the entry. *)
  let line = Buffer.create 512 in
  Json.to_buffer line (payload_json e);
  let payload_line = Buffer.contents line in
  let e = { e with en_hash = chain_hash ~prev:t.head payload_line } in
  Buffer.truncate line (String.length payload_line - 1);
  Buffer.add_string line ",\"hash\":\"";
  Buffer.add_string line e.en_hash;
  Buffer.add_string line "\"}\n";
  t.sink (Buffer.contents line);
  t.count <- t.count + 1;
  t.head <- e.en_hash;
  e

let length t = t.count

let head t = t.head

let contents t =
  match t.buf with
  | Some buf -> Buffer.contents buf
  | None -> invalid_arg "Mc_ledger.contents: ledger has a custom sink"

type error = { ve_index : int; ve_reason : string }

type summary = {
  sum_entries : int;
  sum_head : string;
  sum_verdicts : (string * int) list;
  sum_roots : (string * string) list;
  sum_root_changes : int;
}

let verify_lines ?expect_head lines =
  let verdicts = Hashtbl.create 4 in
  let roots = Hashtbl.create 16 in
  let root_changes = ref 0 in
  let bump tbl k by = Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let check_entry ~index ~prev line =
    match Json.of_string line with
    | Error e -> Error { ve_index = index; ve_reason = "bad JSON: " ^ e }
    | Ok j -> (
        match entry_of_json j with
        | Error e -> Error { ve_index = index; ve_reason = e }
        | Ok e ->
            if e.en_seq <> index then
              Error
                {
                  ve_index = index;
                  ve_reason =
                    Printf.sprintf "sequence %d at position %d" e.en_seq index;
                }
            else if not (String.equal e.en_prev prev) then
              Error
                { ve_index = index; ve_reason = "broken link to previous entry" }
            else
              let expected =
                chain_hash ~prev (Json.to_string (payload_json e))
              in
              if not (String.equal e.en_hash expected) then
                Error { ve_index = index; ve_reason = "chain hash mismatch" }
              else Ok e)
  in
  let rec walk index prev lines =
    match lines () with
    | Seq.Nil -> Ok (index, prev)
    | Seq.Cons (line, rest) -> (
        match check_entry ~index ~prev line with
        | Error e -> Error e
        | Ok e ->
            bump verdicts e.en_verdict 1;
            (match e.en_root with
            | None -> ()
            | Some r ->
                (match Hashtbl.find_opt roots e.en_key with
                | Some prev_root when not (String.equal prev_root r) ->
                    incr root_changes
                | _ -> ());
                Hashtbl.replace roots e.en_key r);
            walk (index + 1) e.en_hash rest)
  in
  match walk 0 genesis lines with
  | Error e -> Error e
  | Ok (entries, last) -> (
      match expect_head with
      | Some h when not (String.equal h last) ->
          Error
            {
              ve_index = entries;
              ve_reason =
                Printf.sprintf "head is %s, expected %s (chain truncated?)"
                  last h;
            }
      | _ ->
          Ok
            {
              sum_entries = entries;
              sum_head = last;
              sum_verdicts =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) verdicts []
                |> List.sort compare;
              sum_roots =
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) roots []
                |> List.sort compare;
              sum_root_changes = !root_changes;
            })

let nonempty_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.to_seq

let verify ?expect_head s = verify_lines ?expect_head (nonempty_lines s)

let verify_file ?expect_head path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (* The file's lines must be materialized before the channel closes;
     keeping only non-empty trimmed lines, a million-entry ledger is a
     list of short strings — fine for an offline audit pass. *)
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> read (if String.trim line = "" then acc else line :: acc)
  in
  verify_lines ?expect_head (List.to_seq (read []))
