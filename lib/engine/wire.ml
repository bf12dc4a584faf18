module Json = Mc_util.Json
module Meter = Mc_hypervisor.Meter
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Exit_code = Modchecker.Exit_code

type frame = {
  f_priority : Engine_core.priority;
  f_request : Engine_core.request;
}

let fields line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let parse_line line =
  let ( let* ) = Result.bind in
  match fields line with
  | [] -> Error "empty request line"
  | kind :: rest ->
      let nth n = List.nth_opt rest n in
      let* f_request =
        match String.lowercase_ascii kind with
        | "check" -> (
            match (nth 0, nth 1) with
            | Some vm, Some module_name -> (
                match int_of_string_opt vm with
                | Some vm when vm >= 0 ->
                    Ok (Engine_core.Check { vm; module_name })
                | _ ->
                    Error
                      (Printf.sprintf "check: VM index expected, got %S" vm))
            | _ -> Error "check: usage `check VM MODULE [PRIORITY]`")
        | "survey" -> (
            match (nth 0, nth 1) with
            | Some _, Some module_name ->
                Ok (Engine_core.Survey { module_name })
            | _ -> Error "survey: usage `survey - MODULE [PRIORITY]`")
        | "lists" -> Ok Engine_core.Lists
        | other ->
            Error
              (Printf.sprintf "unknown request kind %S (check|survey|lists)"
                 other)
      in
      let* f_priority =
        match nth 2 with
        | Some p when p <> "-" -> Engine_core.priority_of_string p
        | _ -> Ok Engine_core.Normal
      in
      Ok { f_priority; f_request }

let line_of_frame f =
  let p = Engine_core.priority_key f.f_priority in
  match f.f_request with
  | Engine_core.Check { vm; module_name } ->
      Printf.sprintf "check %d %s %s" vm module_name p
  | Engine_core.Survey { module_name } ->
      Printf.sprintf "survey - %s %s" module_name p
  | Engine_core.Lists -> Printf.sprintf "lists - - %s" p

let frame_key f = Engine_core.request_key f.f_request

let schema = "modchecker/wire@2"

type body =
  | Report_body of Report.module_report
  | Survey_body of Report.survey
  | Lists_body of Orchestrator.list_comparison
  | Error_body of string

type resp = {
  rs_seq : int;
  rs_frame : frame;
  rs_shard : int;
  rs_wait_s : float;
  rs_service_s : float;
  rs_meter : (string * int) list;
  rs_root : string option;
  rs_body : body;
}

type reply =
  | Resp of resp
  | Busy of { b_seq : int; b_retry_after_s : float; b_queue_bound : int }
  | Draining of { d_seq : int }
  | Invalid of { i_seq : int; i_error : string }

let meter_pairs m =
  List.concat_map
    (fun phase ->
      let prefix = Meter.phase_key phase in
      List.filter_map
        (fun (name, v) ->
          if v = 0 then None else Some (prefix ^ "." ^ name, v))
        (Meter.pairs (Meter.get m phase)))
    [ Meter.Searcher; Meter.Parser; Meter.Checker ]

let resp_of_response ~seq ?root frame (r : Engine_core.response) =
  let rs_body =
    match r.Engine_core.r_outcome with
    | Engine_core.Checked (Ok o) -> Report_body o.Orchestrator.report
    | Engine_core.Checked (Error e) -> Error_body e
    | Engine_core.Surveyed s -> Survey_body s
    | Engine_core.Listed lc -> Lists_body lc
  in
  {
    rs_seq = seq;
    rs_frame = frame;
    rs_shard = r.Engine_core.r_shard;
    rs_wait_s = r.Engine_core.r_wait_s;
    rs_service_s = r.Engine_core.r_service_s;
    rs_meter = meter_pairs r.Engine_core.r_meter;
    rs_root = root;
    rs_body;
  }

let verdict_key resp =
  match resp.rs_body with
  | Report_body r -> Report.verdict_key r.Report.verdict
  | Survey_body s -> Report.verdict_key s.Report.s_verdict
  | Lists_body lc ->
      if lc.Orchestrator.lc_unreachable <> [] then "degraded"
      else if lc.Orchestrator.lc_discrepancies <> [] then "infected"
      else "intact"
  | Error_body _ -> "error"

let vote_counts resp =
  match resp.rs_body with
  | Report_body r -> (r.Report.surveyed, r.Report.responded)
  | Survey_body s -> (s.Report.s_surveyed, s.Report.s_responded)
  | Lists_body _ | Error_body _ -> (0, 0)

let exit_code = function
  | Resp r -> (
      match r.rs_body with
      | Report_body rep -> Exit_code.of_verdict rep.Report.verdict
      | Survey_body s -> Exit_code.of_survey s
      | Lists_body lc -> Exit_code.of_lists lc
      | Error_body _ -> Exit_code.error)
  | Busy _ -> Exit_code.ok
  | Draining _ | Invalid _ -> Exit_code.error

(* --- JSON codec --------------------------------------------------------- *)

let lists_schema = "modchecker/lists@1"

let lists_to_json (lc : Orchestrator.list_comparison) =
  let open Json in
  Obj
    [
      ("schema", String lists_schema);
      ( "discrepancies",
        List
          (List.map
             (fun (d : Orchestrator.list_discrepancy) ->
               Obj
                 [
                   ("module", String d.Orchestrator.ld_module);
                   ( "present_on",
                     List (List.map (fun v -> Int v) d.Orchestrator.present_on)
                   );
                   ( "missing_on",
                     List (List.map (fun v -> Int v) d.Orchestrator.missing_on)
                   );
                 ])
             lc.Orchestrator.lc_discrepancies) );
      ( "unreachable",
        List
          (List.map
             (fun (vm, reason) ->
               Obj [ ("vm", Int vm); ("reason", String reason) ])
             lc.Orchestrator.lc_unreachable) );
    ]

let ( let* ) = Result.bind

let obj_fields what = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (what ^ ": expected an object")

let field fields name =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field fields name =
  let* v = field fields name in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let int_field fields name =
  let* v = field fields name in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S must be an int" name)

(* The emitter prints a fraction-free float as an integer literal, so a
   float field must accept both shapes back. *)
let float_field fields name =
  let* v = field fields name in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

(* [f] over the items of list field [name], stopping at the first error. *)
let list_field fields name f =
  let* v = field fields name in
  match v with
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* x = f item in
          Ok (x :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "field %S must be a list" name)

let int_list_field fields name =
  list_field fields name (function
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "field %S must list ints" name))

let lists_of_json j =
  let* fields = obj_fields "lists comparison" j in
  let* tag = str_field fields "schema" in
  let* () =
    if String.equal tag lists_schema then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" tag lists_schema)
  in
  let* discrepancies =
    list_field fields "discrepancies" (fun item ->
        let* df = obj_fields "discrepancy" item in
        let* ld_module = str_field df "module" in
        let* present_on = int_list_field df "present_on" in
        let* missing_on = int_list_field df "missing_on" in
        Ok { Orchestrator.ld_module; present_on; missing_on })
  in
  let* unreachable =
    list_field fields "unreachable" (fun item ->
        let* uf = obj_fields "unreachable" item in
        let* vm = int_field uf "vm" in
        let* reason = str_field uf "reason" in
        Ok (vm, reason))
  in
  Ok
    {
      Orchestrator.lc_discrepancies = discrepancies;
      lc_unreachable = unreachable;
    }

let request_to_json (r : Engine_core.request) =
  let open Json in
  match r with
  | Engine_core.Check { vm; module_name } ->
      Obj
        [
          ("kind", String "check");
          ("vm", Int vm);
          ("module", String module_name);
        ]
  | Engine_core.Survey { module_name } ->
      Obj [ ("kind", String "survey"); ("module", String module_name) ]
  | Engine_core.Lists -> Obj [ ("kind", String "lists") ]

let request_of_json j =
  let* fields = obj_fields "request" j in
  let* kind = str_field fields "kind" in
  match kind with
  | "check" ->
      let* vm = int_field fields "vm" in
      let* module_name = str_field fields "module" in
      Ok (Engine_core.Check { vm; module_name })
  | "survey" ->
      let* module_name = str_field fields "module" in
      Ok (Engine_core.Survey { module_name })
  | "lists" -> Ok Engine_core.Lists
  | other -> Error (Printf.sprintf "unknown request kind %S" other)

let body_to_json = function
  | Report_body r -> Report.to_json r
  | Survey_body s -> Report.survey_to_json s
  | Lists_body lc -> lists_to_json lc
  | Error_body e -> Json.Obj [ ("error", Json.String e) ]

(* The body shape follows the request kind, except that any kind's run
   can end in a protocol-level error. *)
let body_of_json (request : Engine_core.request) j =
  match (j, request) with
  | Json.Obj [ ("error", Json.String e) ], _ -> Ok (Error_body e)
  | _, Engine_core.Check _ ->
      Result.map (fun r -> Report_body r) (Report.of_json j)
  | _, Engine_core.Survey _ ->
      Result.map (fun s -> Survey_body s) (Report.survey_of_json j)
  | _, Engine_core.Lists ->
      Result.map (fun lc -> Lists_body lc) (lists_of_json j)

let attested_json reply =
  let open Json in
  let tagged ty rest = Obj (("schema", String schema) :: ("type", String ty) :: rest) in
  match reply with
  | Resp r ->
      tagged "response"
        [
          ("seq", Int r.rs_seq);
          ("key", String (frame_key r.rs_frame));
          ("priority", String (Engine_core.priority_key r.rs_frame.f_priority));
          ("request", request_to_json r.rs_frame.f_request);
          ("shard", Int r.rs_shard);
          ("meter", Obj (List.map (fun (k, v) -> (k, Int v)) r.rs_meter));
          ("root", match r.rs_root with None -> Null | Some h -> String h);
          ("verdict", String (verdict_key r));
          ("body", body_to_json r.rs_body);
        ]
  | Busy { b_seq; b_retry_after_s; b_queue_bound } ->
      tagged "busy"
        [
          ("seq", Int b_seq);
          ("retry_after_s", Float b_retry_after_s);
          ("queue_bound", Int b_queue_bound);
        ]
  | Draining { d_seq } -> tagged "draining" [ ("seq", Int d_seq) ]
  | Invalid { i_seq; i_error } ->
      tagged "invalid" [ ("seq", Int i_seq); ("error", String i_error) ]

let timing_fields r =
  [
    ("wait_s", Json.Float r.rs_wait_s);
    ("service_s", Json.Float r.rs_service_s);
  ]

let reply_to_json reply =
  match (attested_json reply, reply) with
  | Json.Obj fields, Resp r -> Json.Obj (fields @ timing_fields r)
  | j, _ -> j

(* The attested bytes end in the object's closing brace; the timing
   fields go in its place, so the line is [reply_to_json]'s. *)
let add_timing buf = function
  | Resp r ->
      let timing = Json.to_string (Json.Obj (timing_fields r)) in
      Buffer.truncate buf (Buffer.length buf - 1);
      Buffer.add_char buf ',';
      Buffer.add_substring buf timing 1 (String.length timing - 1)
  | Busy _ | Draining _ | Invalid _ -> ()

let reply_of_json j =
  let* fields = obj_fields "wire reply" j in
  let* tag = str_field fields "schema" in
  let* () =
    if String.equal tag schema then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" tag schema)
  in
  let* ty = str_field fields "type" in
  match ty with
  | "response" ->
      let* rs_seq = int_field fields "seq" in
      let* prio = str_field fields "priority" in
      let* f_priority = Engine_core.priority_of_string prio in
      let* req_json = field fields "request" in
      let* f_request = request_of_json req_json in
      let* rs_shard = int_field fields "shard" in
      let* rs_wait_s = float_field fields "wait_s" in
      let* rs_service_s = float_field fields "service_s" in
      let* rs_meter =
        let* v = field fields "meter" in
        match v with
        | Json.Obj pairs ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                match v with
                | Json.Int i -> Ok ((k, i) :: acc)
                | _ -> Error "meter counts must be ints")
              (Ok []) pairs
            |> Result.map List.rev
        | _ -> Error "field \"meter\" must be an object"
      in
      let* rs_root =
        let* v = field fields "root" in
        match v with
        | Json.Null -> Ok None
        | Json.String h -> Ok (Some h)
        | _ -> Error "field \"root\" must be a string or null"
      in
      let* body_json = field fields "body" in
      let* rs_body = body_of_json f_request body_json in
      Ok
        (Resp
           {
             rs_seq;
             rs_frame = { f_priority; f_request };
             rs_shard;
             rs_wait_s;
             rs_service_s;
             rs_meter;
             rs_root;
             rs_body;
           })
  | "busy" ->
      let* b_seq = int_field fields "seq" in
      let* b_retry_after_s = float_field fields "retry_after_s" in
      let* b_queue_bound = int_field fields "queue_bound" in
      Ok (Busy { b_seq; b_retry_after_s; b_queue_bound })
  | "draining" ->
      let* d_seq = int_field fields "seq" in
      Ok (Draining { d_seq })
  | "invalid" ->
      let* i_seq = int_field fields "seq" in
      let* i_error = str_field fields "error" in
      Ok (Invalid { i_seq; i_error })
  | other -> Error (Printf.sprintf "unknown reply type %S" other)
