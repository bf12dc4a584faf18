type t = int

let ok = 0

let error = 1

let infected = 2

let degraded = 3

let of_verdict = function
  | Report.Intact -> ok
  | Report.Infected -> infected
  | Report.Degraded _ -> degraded

let of_survey (s : Report.survey) =
  match s.Report.s_verdict with
  | Report.Degraded _ -> degraded
  | Report.Intact | Report.Infected ->
      if s.Report.deviant_vms <> [] || s.Report.missing_on <> [] then infected
      else ok

let of_lists (lc : Orchestrator.list_comparison) =
  if lc.Orchestrator.lc_unreachable <> [] then degraded
  else if lc.Orchestrator.lc_discrepancies <> [] then infected
  else ok

(* Severity, not numeric, order: an undecidable batch (error, degraded)
   must outrank a decided-bad one. *)
let severity = function
  | 1 -> 3  (* error *)
  | 3 -> 2  (* degraded *)
  | 2 -> 1  (* infected *)
  | _ -> 0  (* ok *)

let combine a b = if severity a >= severity b then a else b

let combine_all = List.fold_left combine ok

let of_alarms alarms =
  List.fold_left
    (fun code (a : Patrol.alarm) ->
      combine code
        (match a.Patrol.kind with
        | Patrol.Quorum_loss -> degraded
        | Patrol.Hash_deviation | Patrol.Missing_module
        | Patrol.List_discrepancy | Patrol.Anchor_mismatch ->
            infected))
    ok alarms

let exit_with c = if c <> ok then exit c
