type result = {
  sh_scenario : Event.scenario;
  sh_failure : Runner.failure;
  sh_runs : int;
}

let take n l = List.filteri (fun i _ -> i < n) l
let drop_range i len l = List.filteri (fun j _ -> j < i || j >= i + len) l

let ddmin ~fails xs =
  let best = ref xs in
  let len = ref (max 1 (List.length xs / 2)) in
  while !len >= 1 do
    (* The list shrinks under us whenever a removal sticks, so the bound
       is re-derived each iteration; a sticking removal retries the same
       position. *)
    let i = ref 0 in
    while !i < List.length !best && List.length !best > 1 do
      let cand = drop_range !i !len !best in
      if fails cand then best := cand else i := !i + !len
    done;
    len := if !len = 1 then 0 else !len / 2
  done;
  !best

let shrink ?(budget = 300) ?(break_checker = false) ?quorum sc failure =
  let runs = ref 0 in
  let best = ref (sc, failure) in
  let try_candidate sc' =
    if !runs >= budget then false
    else begin
      incr runs;
      match (Runner.run ~break_checker ?quorum sc').Runner.r_failure with
      | Some f ->
          best := (sc', f);
          true
      | None -> false
    end
  in
  let with_events sc events = { sc with Event.sc_events = events } in
  let changed = ref true in
  while !changed && !runs < budget do
    changed := false;
    (* Truncate: nothing after the failing step can matter. *)
    let sc0, f0 = !best in
    let n = List.length sc0.Event.sc_events in
    if f0.Runner.f_step + 1 < n then
      if try_candidate (with_events sc0 (take (f0.Runner.f_step + 1) sc0.Event.sc_events))
      then changed := true;
    (* ddmin over the event list. A candidate past the budget is not
       run and counts as passing, so the pass only spins out. *)
    let sc0, _ = !best in
    let events =
      ddmin ~fails:(fun evs -> try_candidate (with_events sc0 evs))
        sc0.Event.sc_events
    in
    if List.length events < List.length sc0.Event.sc_events then
      changed := true;
    (* Shrink the pool: events referencing a VM beyond the new pool are
       skipped by the runner's preconditions, so every candidate stays
       well-formed. Take the smallest pool that still fails. *)
    let sc0, _ = !best in
    let v = ref 2 in
    let found = ref false in
    while (not !found) && !v < sc0.Event.sc_vms && !runs < budget do
      if try_candidate { sc0 with Event.sc_vms = !v } then begin
        found := true;
        changed := true
      end
      else incr v
    done;
    (* Drop watch modules (the sweep and rotation set), keeping one. *)
    let rec drop_watch () =
      let sc0, _ = !best in
      if List.length sc0.Event.sc_watch > 1 && !runs < budget then
        let dropped =
          List.find_opt
            (fun m ->
              try_candidate
                {
                  sc0 with
                  Event.sc_watch =
                    List.filter (fun m' -> m' <> m) sc0.Event.sc_watch;
                })
            sc0.Event.sc_watch
        in
        match dropped with
        | Some _ ->
            changed := true;
            drop_watch ()
        | None -> ()
    in
    drop_watch ()
  done;
  let sc', f' = !best in
  { sh_scenario = sc'; sh_failure = f'; sh_runs = !runs }
