module Cloud = Mc_hypervisor.Cloud

type module_status = {
  ms_module : string;
  ms_present_on : int;
  ms_deviants : int list;
  ms_missing : int list;
  ms_consistent : bool;
}

type report = {
  fr_modules : module_status list;
  fr_suspicion : (int * int) list;
  fr_unreachable : (int * string) list;
  fr_clean : bool;
}

let assess ?(config = Orchestrator.Config.default) cloud =
  (* A VM whose list walk faulted has no listing: it is reported, keeps
     the pool from reading clean, and takes no part in the presence
     vote — counting it as missing every module would turn a fault
     burst into a hiding alarm. *)
  let listing, unreachable =
    List.partition_map
      (fun vm ->
        match Orchestrator.list_walk ~config cloud ~vm with
        | Ok names -> Left (vm, names)
        | Error reason -> Right (vm, reason))
      (List.init (Cloud.vm_count cloud) Fun.id)
  in
  let all_names =
    List.sort_uniq compare (List.concat_map snd listing)
  in
  let statuses =
    List.map
      (fun name ->
        let holds (_, names) = List.mem name names in
        (* Missing from a minority = hiding signal; missing from most =
           a module only some VMs load (surveyed among holders only). The
           majority is taken within each version cohort: a module rolled
           out to (say) the patched half of the pool must not implicate
           the unpatched half, while a cohort member hiding it is still
           outvoted by its own cohort. *)
        let missing =
          List.concat_map
            (fun level ->
              let holders, absent =
                List.partition holds
                  (List.filter
                     (fun (vm, _) -> Cloud.vm_patch_level cloud vm = level)
                     listing)
              in
              if List.length holders > List.length absent then
                List.map fst absent
              else [])
            (Cloud.distinct_patch_levels cloud)
          |> List.sort compare
        in
        let survey = Orchestrator.survey ~config cloud ~module_name:name in
        let deviants = survey.Report.deviant_vms in
        {
          ms_module = name;
          ms_present_on = List.length (List.filter holds listing);
          ms_deviants = deviants;
          ms_missing = missing;
          ms_consistent = deviants = [] && missing = [];
        })
      all_names
  in
  let suspicion = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun vm ->
          Hashtbl.replace suspicion vm
            (1 + Option.value ~default:0 (Hashtbl.find_opt suspicion vm)))
        (s.ms_deviants @ s.ms_missing))
    statuses;
  let fr_suspicion =
    Hashtbl.fold (fun vm n acc -> (vm, n) :: acc) suspicion []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    fr_modules = statuses;
    fr_suspicion;
    fr_unreachable = unreachable;
    fr_clean =
      unreachable = [] && List.for_all (fun s -> s.ms_consistent) statuses;
  }

let vm_list vms =
  if vms = [] then "-"
  else
    String.concat ","
      (List.map (fun v -> Printf.sprintf "Dom%d" (v + 1)) vms)

let to_table r =
  Mc_util.Table.render
    ~header:[ "module"; "present on"; "deviant"; "missing"; "status" ]
    (List.map
       (fun s ->
         [
           s.ms_module;
           string_of_int s.ms_present_on;
           vm_list s.ms_deviants;
           vm_list s.ms_missing;
           (if s.ms_consistent then "consistent" else "SUSPICIOUS");
         ])
       r.fr_modules)

let to_json r =
  let open Mc_util.Json in
  let vms l = List (List.map (fun v -> Int v) l) in
  Obj
    [
      ("clean", Bool r.fr_clean);
      ( "modules",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("module", String s.ms_module);
                   ("present_on", Int s.ms_present_on);
                   ("deviants", vms s.ms_deviants);
                   ("missing", vms s.ms_missing);
                   ("consistent", Bool s.ms_consistent);
                 ])
             r.fr_modules) );
      ( "suspicion",
        List
          (List.map
             (fun (vm, n) -> Obj [ ("vm", Int vm); ("findings", Int n) ])
             r.fr_suspicion) );
      ( "unreachable",
        List
          (List.map
             (fun (vm, reason) ->
               Obj [ ("vm", Int vm); ("reason", String reason) ])
             r.fr_unreachable) );
    ]

let summary r =
  if r.fr_unreachable <> [] then
    Printf.sprintf "FLEET DEGRADED: module list unreadable on %s"
      (vm_list (List.map fst r.fr_unreachable))
  else if r.fr_clean then
    Printf.sprintf "FLEET CLEAN (%d modules)" (List.length r.fr_modules)
  else
    match r.fr_suspicion with
    | (vm, n) :: _ ->
        Printf.sprintf "FLEET SUSPICIOUS: Dom%d implicated by %d finding(s)"
          (vm + 1) n
    | [] -> "FLEET SUSPICIOUS"
