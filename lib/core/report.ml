type comparison = { other_vm : int; result : Checker.pair_result }

type verdict = Intact | Infected | Degraded of string

let verdict_key = function
  | Intact -> "intact"
  | Infected -> "infected"
  | Degraded _ -> "degraded"

let default_quorum = 0.5

(* Quorum floor: a verdict is only trustworthy when at least
   [quorum * surveyed] of the VMs we asked actually answered. Unreachable
   VMs are excluded from the vote entirely (a fault is not a mismatch);
   too many of them and the verdict degrades rather than pretending the
   shrunken majority still speaks for the pool. *)
let quorum_met ~quorum ~surveyed ~responded =
  responded > 0
  && float_of_int responded >= quorum *. float_of_int surveyed

let cohort_deviants ~members classes =
  match classes with
  | [] | [ _ ] -> []
  | first :: rest ->
      let largest =
        List.fold_left
          (fun best c -> if List.length c > List.length best then c else best)
          first rest
      in
      if 2 * List.length largest > List.length members then
        List.filter (fun v -> not (List.mem v largest)) members
        |> List.sort compare
      else List.sort compare members

type module_report = {
  module_name : string;
  target_vm : int;
  comparisons : comparison list;
  matches : int;
  total : int;
  majority_ok : bool;
  flagged_artifacts : Artifact.kind list;
  unreachable : (int * string) list;
  surveyed : int;
  responded : int;
  voted : int;
  verdict : verdict;
}

type survey = {
  survey_module : string;
  vm_indices : int list;
  missing_on : int list;
  deviant_vms : int list;
  agreement_classes : int list list;
  pairwise_matches : ((int * int) * bool) list;
  unreachable_on : (int * string) list;
  s_surveyed : int;
  s_responded : int;
  s_voted : int;
  s_verdict : verdict;
}

let make ~module_name ~target_vm ?(unreachable = []) ?surveyed
    ?(quorum = default_quorum) comparisons =
  let total = List.length comparisons in
  let surveyed =
    match surveyed with
    | Some s -> s
    | None -> total + List.length unreachable
  in
  let responded = surveyed - List.length unreachable in
  let matches =
    List.length
      (List.filter (fun c -> c.result.Checker.all_match) comparisons)
  in
  (* An artifact is the *target's* problem when it disagrees with a strict
     majority of the pool; a single disagreeing peer indicts the peer. *)
  let kinds =
    match comparisons with
    | [] -> []
    | c :: _ -> List.map (fun v -> v.Checker.av_kind) c.result.Checker.verdicts
  in
  let mismatch_count kind =
    List.length
      (List.filter
         (fun c ->
           List.exists
             (fun v ->
               Artifact.equal_kind v.Checker.av_kind kind
               && not v.Checker.av_match)
             c.result.Checker.verdicts)
         comparisons)
  in
  let flagged_artifacts =
    List.filter (fun kind -> 2 * mismatch_count kind > total) kinds
  in
  let majority_ok = 2 * matches > total in
  let verdict =
    if not (quorum_met ~quorum ~surveyed ~responded) then
      Degraded
        (Printf.sprintf "%d/%d comparison VM(s) responded (quorum %g)"
           responded surveyed quorum)
    else if majority_ok then Intact
    else Infected
  in
  {
    module_name;
    target_vm;
    comparisons;
    matches;
    total;
    majority_ok;
    flagged_artifacts;
    unreachable;
    surveyed;
    responded;
    voted = total;
    verdict;
  }

let verdict_string r =
  match r.verdict with
  | Intact -> Printf.sprintf "INTACT (%d/%d)" r.matches r.total
  | Infected ->
      Printf.sprintf "SUSPICIOUS (%d/%d): %s" r.matches r.total
        (String.concat ", " (List.map Artifact.kind_name r.flagged_artifacts))
  | Degraded reason ->
      Printf.sprintf "DEGRADED (%d/%d): %s" r.matches r.total reason

let to_table r =
  let kinds =
    match r.comparisons with
    | [] -> []
    | c :: _ -> List.map (fun v -> v.Checker.av_kind) c.result.Checker.verdicts
  in
  let header =
    "artifact"
    :: List.map (fun c -> Printf.sprintf "vs Dom%d" (c.other_vm + 1)) r.comparisons
  in
  let rows =
    List.map
      (fun kind ->
        Artifact.kind_name kind
        :: List.map
             (fun c ->
               match
                 List.find_opt
                   (fun v -> Artifact.equal_kind v.Checker.av_kind kind)
                   c.result.Checker.verdicts
               with
               | Some v -> if v.Checker.av_match then "match" else "MISMATCH"
               | None -> "?")
             r.comparisons)
      kinds
  in
  Mc_util.Table.render ~header rows

let pp fmt r =
  Format.fprintf fmt "%s on Dom%d: %s" r.module_name (r.target_vm + 1)
    (verdict_string r)

(* --- versioned machine-readable form ----------------------------------- *)

(* The schema tag is the contract with engine clients and scripts: a
   consumer checks it and refuses documents it does not understand, and a
   future incompatible change bumps the @N suffix instead of silently
   reshaping fields. *)
let schema = "modchecker/report@1"

let survey_schema = "modchecker/survey@1"

let unreachable_json u =
  let open Mc_util.Json in
  List
    (List.map
       (fun (vm, reason) -> Obj [ ("vm", Int vm); ("reason", String reason) ])
       u)

let verdict_fields v =
  let open Mc_util.Json in
  ("verdict", String (verdict_key v))
  ::
  (match v with
  | Degraded reason -> [ ("degraded_reason", String reason) ]
  | Intact | Infected -> [])

let to_json r =
  let open Mc_util.Json in
  Obj
    ([
       ("schema", String schema);
       ("module", String r.module_name);
       ("target_vm", Int r.target_vm);
       ("majority_ok", Bool r.majority_ok);
       ("matches", Int r.matches);
       ("total", Int r.total);
       ("surveyed", Int r.surveyed);
       ("responded", Int r.responded);
       ("voted", Int r.voted);
       ("unreachable", unreachable_json r.unreachable);
     ]
    @ verdict_fields r.verdict
    @ [
        ( "flagged_artifacts",
          List
            (List.map
               (fun k -> String (Artifact.kind_name k))
               r.flagged_artifacts) );
        ( "comparisons",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("other_vm", Int c.other_vm);
                   ("all_match", Bool c.result.Checker.all_match);
                   ("total_adjusted", Int c.result.Checker.total_adjusted);
                   ( "artifacts",
                     List
                       (List.map
                          (fun v ->
                            Obj
                              [
                                ( "artifact",
                                  String (Artifact.kind_name v.Checker.av_kind)
                                );
                                ("match", Bool v.Checker.av_match);
                                ("md5_target", String v.Checker.av_digest1);
                                ("md5_other", String v.Checker.av_digest2);
                                ("addresses_adjusted", Int v.Checker.av_adjusted);
                              ])
                          c.result.Checker.verdicts) );
                 ])
             r.comparisons) );
      ])

let survey_to_json s =
  let open Mc_util.Json in
  let vms l = List (List.map (fun v -> Int v) l) in
  Obj
    ([
       ("schema", String survey_schema);
       ("module", String s.survey_module);
       ("vms", vms s.vm_indices);
       ("missing_on", vms s.missing_on);
       ("deviant_vms", vms s.deviant_vms);
       ("unreachable", unreachable_json s.unreachable_on);
       ("surveyed", Int s.s_surveyed);
       ("responded", Int s.s_responded);
       ("voted", Int s.s_voted);
     ]
    @ verdict_fields s.s_verdict
    @ [
        ( "agreement_classes",
          List (List.map (fun c -> vms c) s.agreement_classes) );
        ( "pairwise",
          List
            (List.map
               (fun ((a, b), ok) ->
                 Obj [ ("a", Int a); ("b", Int b); ("match", Bool ok) ])
               s.pairwise_matches) );
      ])

(* --- parsing the versioned form back ------------------------------------ *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let get name = function
  | Mc_util.Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected an object around field %S" name

let as_int name = function
  | Mc_util.Json.Int i -> i
  | _ -> fail "field %S: expected an integer" name

let as_bool name = function
  | Mc_util.Json.Bool b -> b
  | _ -> fail "field %S: expected a boolean" name

let as_string name = function
  | Mc_util.Json.String s -> s
  | _ -> fail "field %S: expected a string" name

let as_list name = function
  | Mc_util.Json.List l -> l
  | _ -> fail "field %S: expected a list" name

let int_field name j = as_int name (get name j)

let bool_field name j = as_bool name (get name j)

let string_field name j = as_string name (get name j)

let list_field name j = as_list name (get name j)

let vms_field name j = List.map (as_int name) (list_field name j)

let check_schema expected j =
  let found = string_field "schema" j in
  if found <> expected then
    fail "unsupported schema %S (this reader understands %S)" found expected

let unreachable_of_json name j =
  List.map
    (fun u -> (int_field "vm" u, string_field "reason" u))
    (list_field name j)

let verdict_of_json j =
  match string_field "verdict" j with
  | "intact" -> Intact
  | "infected" -> Infected
  | "degraded" -> Degraded (string_field "degraded_reason" j)
  | v -> fail "unknown verdict %S" v

let comparison_of_json c =
  let verdicts =
    List.map
      (fun a ->
        Checker.
          {
            av_kind = Artifact.kind_of_name (string_field "artifact" a);
            av_match = bool_field "match" a;
            av_digest1 = string_field "md5_target" a;
            av_digest2 = string_field "md5_other" a;
            av_adjusted = int_field "addresses_adjusted" a;
          })
      (list_field "artifacts" c)
  in
  {
    other_vm = int_field "other_vm" c;
    result =
      Checker.
        {
          verdicts;
          all_match = bool_field "all_match" c;
          total_adjusted = int_field "total_adjusted" c;
        };
  }

let of_json j =
  try
    check_schema schema j;
    Ok
      {
        module_name = string_field "module" j;
        target_vm = int_field "target_vm" j;
        comparisons = List.map comparison_of_json (list_field "comparisons" j);
        matches = int_field "matches" j;
        total = int_field "total" j;
        majority_ok = bool_field "majority_ok" j;
        flagged_artifacts =
          List.map
            (fun k -> Artifact.kind_of_name (as_string "flagged_artifacts" k))
            (list_field "flagged_artifacts" j);
        unreachable = unreachable_of_json "unreachable" j;
        surveyed = int_field "surveyed" j;
        responded = int_field "responded" j;
        voted = int_field "voted" j;
        verdict = verdict_of_json j;
      }
  with Parse msg -> Error msg

let survey_of_json j =
  try
    check_schema survey_schema j;
    Ok
      {
        survey_module = string_field "module" j;
        vm_indices = vms_field "vms" j;
        missing_on = vms_field "missing_on" j;
        deviant_vms = vms_field "deviant_vms" j;
        agreement_classes =
          List.map
            (fun c -> List.map (as_int "agreement_classes") (as_list "agreement_classes" c))
            (list_field "agreement_classes" j);
        pairwise_matches =
          List.map
            (fun p ->
              ((int_field "a" p, int_field "b" p), bool_field "match" p))
            (list_field "pairwise" j);
        unreachable_on = unreachable_of_json "unreachable" j;
        s_surveyed = int_field "surveyed" j;
        s_responded = int_field "responded" j;
        s_voted = int_field "voted" j;
        s_verdict = verdict_of_json j;
      }
  with Parse msg -> Error msg
