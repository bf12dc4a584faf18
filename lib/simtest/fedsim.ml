(* Whole-fleet simulation testing: random sequences of host failures,
   per-VM infections, coordinated whole-host infections, and sweeps,
   validated after every sweep against a ground-truth ledger that
   predicts the exact deviant sets, the deviant-host ballots, and the
   fleet verdict — including that version skew across cohorts never
   votes and that any whole-host outage degrades (host quorum 1.0).

   The generator keeps every campaign inside the region where the
   hierarchy's answer is provably unique: per-VM infections stay a
   strict minority of their host's pool, and coordinated infections stay
   a strict minority of their cohort's voters. Outside that region the
   vote (correctly) has no strict majority and flags everything, which
   the acceptance tests cover separately. *)

module Rng = Mc_util.Rng
module Topo = Mc_federation.Topology
module Co = Mc_federation.Coordinator
module Report = Modchecker.Report

type event =
  | Infect of { host : int; vm : int }
      (** Inline-hook [hal.dll] on one VM of one host. *)
  | Infect_host of int
      (** Hook every VM of the host identically — invisible to the
          host's own vote, caught only by the cross-host ballot. *)
  | Host_down of int
  | Host_up of int
  | Sweep  (** Fleet survey of [hal.dll] + oracle cross-examination. *)

let event_to_string = function
  | Infect { host; vm } -> Printf.sprintf "infect %d %d" host vm
  | Infect_host h -> Printf.sprintf "infect-host %d" h
  | Host_down h -> Printf.sprintf "host-down %d" h
  | Host_up h -> Printf.sprintf "host-up %d" h
  | Sweep -> "sweep"

type scenario = {
  fs_hosts : int;
  fs_vms_per_host : int;
  fs_levels : int list;
  fs_seed : int64;
  fs_events : event list;
}

(* --- ledger ------------------------------------------------------------ *)

type ledger = {
  mutable infected : (int * int) list;  (* minority per-VM hooks *)
  mutable infected_hosts : int list;  (* coordinated whole-host hooks *)
  mutable down : int list;
}

let level_of sc h = List.nth sc.fs_levels (h mod List.length sc.fs_levels)

(* What the coordinator must report for a hal.dll fleet survey. *)
let predict sc l =
  let up h = not (List.mem h l.down) in
  let hosts = List.init sc.fs_hosts Fun.id in
  let deviant_vms =
    List.concat_map
      (fun h ->
        if (not (up h)) || List.mem h l.infected_hosts then []
        else
          List.filter_map
            (fun (h', vm) -> if h' = h then Some (h, vm) else None)
            l.infected)
      hosts
    |> List.sort compare
  in
  let deviant_hosts =
    (* Per cohort, over the hosts actually voting (outages shrink the
       electorate): coordinated hosts share one wrong ballot, everyone
       else shares the clean one; the strict-majority group wins and the
       rest are deviant — everyone, when no strict majority survives. *)
    let levels = List.sort_uniq compare (List.map (level_of sc) hosts) in
    List.concat_map
      (fun level ->
        let voters =
          List.filter (fun h -> up h && level_of sc h = level) hosts
        in
        let bad = List.filter (fun h -> List.mem h l.infected_hosts) voters in
        let clean = List.filter (fun h -> not (List.mem h bad)) voters in
        if bad = [] || clean = [] then []
        else if 2 * List.length clean > List.length voters then bad
        else if 2 * List.length bad > List.length voters then clean
        else voters)
      levels
    |> List.sort compare
  in
  let verdict =
    if l.down <> [] then `Degraded
    else if deviant_vms <> [] || deviant_hosts <> [] then `Infected
    else `Intact
  in
  (deviant_vms, deviant_hosts, verdict)

(* --- generator --------------------------------------------------------- *)

let gen_scenario ?(hosts = 6) ?(vms_per_host = 5) ?(levels = [ 1; 2 ])
    ~seed ~steps () =
  let rng = Rng.create seed in
  let sc =
    { fs_hosts = hosts; fs_vms_per_host = vms_per_host; fs_levels = levels;
      fs_seed = seed; fs_events = [] }
  in
  (* Mirror of the ledger, to keep generated scenarios inside the
     strict-majority region. *)
  let l = { infected = []; infected_hosts = []; down = [] } in
  let cohort_mates h =
    List.filter
      (fun h' -> level_of sc h' = level_of sc h)
      (List.init hosts Fun.id)
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  for _ = 1 to steps do
    match Rng.int rng 6 with
    | 0 ->
        (* A minority per-VM infection on a host not already taken whole. *)
        let h = Rng.int rng hosts in
        let infected_here =
          List.length (List.filter (fun (h', _) -> h' = h) l.infected)
        in
        if
          (not (List.mem h l.infected_hosts))
          && 2 * (infected_here + 1) < vms_per_host
        then begin
          let vm = Rng.int rng vms_per_host in
          if not (List.mem (h, vm) l.infected) then begin
            l.infected <- (h, vm) :: l.infected;
            emit (Infect { host = h; vm })
          end
        end
    | 1 ->
        (* A coordinated infection, only while its cohort keeps a clean
           strict majority of potential voters. *)
        let h = Rng.int rng hosts in
        let mates = cohort_mates h in
        let bad =
          List.length (List.filter (fun m -> List.mem m l.infected_hosts) mates)
        in
        if
          (not (List.mem h l.infected_hosts))
          && (not (List.exists (fun (h', _) -> h' = h) l.infected))
          && 2 * (bad + 1) < List.length mates
        then begin
          l.infected_hosts <- h :: l.infected_hosts;
          emit (Infect_host h)
        end
    | 2 ->
        let h = Rng.int rng hosts in
        if not (List.mem h l.down) then begin
          l.down <- h :: l.down;
          emit (Host_down h)
        end
    | 3 ->
        if l.down <> [] then begin
          let h = List.nth l.down (Rng.int rng (List.length l.down)) in
          l.down <- List.filter (fun h' -> h' <> h) l.down;
          emit (Host_up h)
        end
    | _ -> emit Sweep
  done;
  emit Sweep;
  { sc with fs_events = List.rev !events }

(* --- runner ------------------------------------------------------------ *)

type failure = { ff_step : int; ff_reason : string }

type outcome = {
  fr_transcript : string;
  fr_failure : failure option;
  fr_sweeps : int;
}

let run sc =
  let buf = Buffer.create 1024 in
  (* Racks must multiply out to exactly [fs_hosts] or the ledger and the
     topology disagree about the electorate; prefer two racks when the
     host count splits evenly. *)
  let racks, hosts_per_rack =
    if sc.fs_hosts mod 2 = 0 && sc.fs_hosts > 2 then (2, sc.fs_hosts / 2)
    else (1, sc.fs_hosts)
  in
  let spec =
    {
      Topo.default_spec with
      Topo.hosts_per_rack;
      racks_per_region = racks;
      vms_per_host = sc.fs_vms_per_host;
      patch_levels = sc.fs_levels;
      seed = sc.fs_seed;
    }
  in
  let topo = Topo.create ~spec () in
  let l = { infected = []; infected_hosts = []; down = [] } in
  let failure = ref None in
  let sweeps = ref 0 in
  let fail step fmt =
    Printf.ksprintf
      (fun reason ->
        if !failure = None then
          failure := Some { ff_step = step; ff_reason = reason })
      fmt
  in
  let hook host vm =
    match
      Mc_malware.Infect.inline_hook
        (Topo.host topo host).Mc_federation.Host.cloud ~vm
    with
    | Ok _ -> true
    | Error _ -> false  (* already hooked: event is a no-op *)
  in
  List.iteri
    (fun step ev ->
      if !failure = None then begin
        Buffer.add_string buf (Printf.sprintf "%3d %s\n" step (event_to_string ev));
        match ev with
        | Infect { host; vm } ->
            if hook host vm then l.infected <- (host, vm) :: l.infected
        | Infect_host h ->
            let all =
              List.init sc.fs_vms_per_host (fun vm -> hook h vm)
            in
            if List.for_all Fun.id all then
              l.infected_hosts <- h :: l.infected_hosts
            else fail step "coordinated infection only partially staged"
        | Host_down h ->
            Topo.set_host_down topo h;
            if not (List.mem h l.down) then l.down <- h :: l.down
        | Host_up h ->
            Topo.set_host_up topo h;
            l.down <- List.filter (fun h' -> h' <> h) l.down
        | Sweep ->
            incr sweeps;
            let r = Co.survey topo ~module_name:"hal.dll" in
            let exp_dvms, exp_dhosts, exp_verdict = predict sc l in
            let got_verdict =
              match r.Co.fb_verdict with
              | Report.Intact -> `Intact
              | Report.Infected -> `Infected
              | Report.Degraded _ -> `Degraded
            in
            let show_pairs ps =
              String.concat ","
                (List.map (fun (h, v) -> Printf.sprintf "%d:%d" h v) ps)
            in
            let show_ints is =
              String.concat "," (List.map string_of_int is)
            in
            if r.Co.fb_deviant_vms <> exp_dvms then
              fail step "deviant VMs: expected [%s], got [%s]"
                (show_pairs exp_dvms)
                (show_pairs r.Co.fb_deviant_vms)
            else if r.Co.fb_deviant_hosts <> exp_dhosts then
              fail step "deviant hosts: expected [%s], got [%s]"
                (show_ints exp_dhosts)
                (show_ints r.Co.fb_deviant_hosts)
            else if got_verdict <> exp_verdict then
              fail step "verdict mismatch (expected %s, got %s)"
                (match exp_verdict with
                | `Intact -> "intact" | `Infected -> "infected"
                | `Degraded -> "degraded")
                (Co.verdict_name r.Co.fb_verdict)
            else begin
              (* Exit-code law: degraded (3) outranks infected (2). *)
              let code = Co.exit_code r in
              let exp_code =
                match exp_verdict with
                | `Intact -> Modchecker.Exit_code.ok
                | `Infected -> Modchecker.Exit_code.infected
                | `Degraded -> Modchecker.Exit_code.degraded
              in
              if code <> exp_code then
                fail step "exit code: expected %d, got %d" exp_code code
            end;
            Buffer.add_string buf
              (Printf.sprintf "    -> %s deviant=[%s] deviant-hosts=[%s]\n"
                 (Co.verdict_name r.Co.fb_verdict)
                 (String.concat ","
                    (List.map
                       (fun (h, v) -> Printf.sprintf "%d:%d" h v)
                       r.Co.fb_deviant_vms))
                 (String.concat ","
                    (List.map string_of_int r.Co.fb_deviant_hosts)))
      end)
    sc.fs_events;
  { fr_transcript = Buffer.contents buf; fr_failure = !failure;
    fr_sweeps = !sweeps }

(* Greedy event-removal shrink: drop one event at a time as long as the
   scenario still fails. *)
let shrink ?(budget = 100) sc (f : failure) =
  let still_fails sc =
    match (run sc).fr_failure with Some _ -> true | None -> false
  in
  let runs = ref 0 in
  let best = ref sc and best_f = ref f in
  let progress = ref true in
  while !progress && !runs < budget do
    progress := false;
    let evs = Array.of_list !best.fs_events in
    let n = Array.length evs in
    let i = ref 0 in
    while (not !progress) && !i < n && !runs < budget do
      let cand =
        {
          !best with
          fs_events =
            Array.to_list evs |> List.filteri (fun j _ -> j <> !i);
        }
      in
      incr runs;
      (match (run cand).fr_failure with
      | Some f' ->
          best := cand;
          best_f := f';
          progress := true
      | None -> ());
      incr i
    done
  done;
  ignore still_fails;
  (!best, !best_f, !runs)

type campaign_result = {
  fc_campaigns : int;
  fc_sweeps : int;
  fc_transcript : string;
  fc_failures : (int * int64 * failure * scenario) list;
      (** (campaign, seed, shrunk failure, shrunk scenario). *)
}

let run_campaigns ?(keep_going = false) ?(shrink_budget = 100) ?hosts
    ?vms_per_host ?levels ~seed ~steps ~campaigns () =
  let buf = Buffer.create 4096 in
  let failures = ref [] in
  let sweeps = ref 0 in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < campaigns do
    let campaign_seed = Int64.add seed (Int64.of_int !i) in
    let sc = gen_scenario ?hosts ?vms_per_host ?levels ~seed:campaign_seed ~steps () in
    let o = run sc in
    Buffer.add_string buf
      (Printf.sprintf "== federation campaign %d seed=%Ld\n%s" !i campaign_seed
         o.fr_transcript);
    sweeps := !sweeps + o.fr_sweeps;
    (match o.fr_failure with
    | None -> ()
    | Some f ->
        let shrunk, f', _ =
          if shrink_budget > 0 then shrink ~budget:shrink_budget sc f
          else (sc, f, 0)
        in
        failures := (!i, campaign_seed, f', shrunk) :: !failures;
        if not keep_going then stop := true);
    incr i
  done;
  {
    fc_campaigns = !i;
    fc_sweeps = !sweeps;
    fc_transcript = Buffer.contents buf;
    fc_failures = List.rev !failures;
  }

let render_failure (campaign, seed, f, sc) =
  Printf.sprintf
    "federation campaign %d (seed %Ld) failed at step %d: %s\n\
     shrunk scenario (%d events):\n%s"
    campaign seed f.ff_step f.ff_reason
    (List.length sc.fs_events)
    (String.concat "\n"
       (List.map (fun e -> "  " ^ event_to_string e) sc.fs_events))
