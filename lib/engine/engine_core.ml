module Cloud = Mc_hypervisor.Cloud
module Meter = Mc_hypervisor.Meter
module Orchestrator = Modchecker.Orchestrator
module Report = Modchecker.Report
module Deferred = Mc_parallel.Deferred
module Tel = Mc_telemetry.Registry
module Span = Mc_telemetry.Span

type priority = High | Normal | Low

let priority_key = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_string s =
  match String.lowercase_ascii s with
  | "high" -> Ok High
  | "normal" -> Ok Normal
  | "low" -> Ok Low
  | other ->
      Error (Printf.sprintf "unknown priority %S (high|normal|low)" other)

let priority_index = function High -> 0 | Normal -> 1 | Low -> 2

let priorities = 3

type request =
  | Check of { vm : int; module_name : string }
  | Survey of { module_name : string }
  | Lists

let request_key = function
  | Check { vm; module_name } -> Printf.sprintf "check:%d:%s" vm module_name
  | Survey { module_name } -> "survey:" ^ module_name
  | Lists -> "lists"

type outcome =
  | Checked of (Orchestrator.outcome, string) result
  | Surveyed of Report.survey
  | Listed of Orchestrator.list_comparison

type response = {
  r_request : request;
  r_outcome : outcome;
  r_meter : Meter.t;
  r_shard : int;
  r_wait_s : float;
  r_service_s : float;
}

type rejection = Queue_full of int | Draining

let rejection_message = function
  | Queue_full n -> Printf.sprintf "queue full (bound %d)" n
  | Draining -> "engine is draining"

type entry = {
  e_request : request;
  e_cell : response Deferred.t;
  e_submitted : float;
}

type shard = {
  sh_id : int;
  sh_cond : Condition.t;
  sh_queues : entry Queue.t array;  (* one FIFO per priority *)
  sh_meter : Meter.t;
      (* The merge of every meter this shard's requests produced — the
         per-shard virtual cost, whose max over shards is the service's
         critical path on ideal hardware. *)
  mutable sh_serviced : int;
  mutable sh_busy_s : float;
  sh_serviced_metric : string;
  sh_busy_metric : string;
      (* Telemetry names, formatted once here rather than per request. *)
}

type t = {
  eng_cloud : Cloud.t;
  eng_config : Orchestrator.Config.t;
      (* Every request's config: sequential, so a request runs on the
         dispatcher domain that took it, over the shared [eng_inc]. *)
  eng_inc : Orchestrator.incremental;
      (* One incremental state for every request the engine ever
         services: the page caches are per-VM and version-checked, the
         digest caches footprint-keyed, so sharing across shards is safe
         and is where the engine's cost advantage comes from. *)
  eng_mutex : Mutex.t;
      (* Guards queues, the pending table, and all counters. Never held
         while a request is being serviced. *)
  eng_shards : shard array;
  eng_queue_bound : int;
  eng_pending : (request, entry) Hashtbl.t;
      (* Coalescing map: request → its queued-or-in-flight entry. An
         entry leaves the table only when its deferred is settled, so a
         duplicate arriving mid-service still joins. *)
  eng_meter : Meter.t;
  mutable eng_queued : int;
  mutable eng_draining : bool;
  mutable eng_submitted : int;
  mutable eng_coalesced : int;
  mutable eng_rejected : int;
  mutable eng_completed : int;
  mutable eng_max_depth : int;
  mutable eng_run_backoffs : int;
  mutable eng_dispatchers : unit Domain.t list;
}

let now () = Unix.gettimeofday ()

let shard_of t = function
  | Check { vm; _ } -> vm mod Array.length t.eng_shards
  | Survey { module_name } ->
      Hashtbl.hash module_name mod Array.length t.eng_shards
  | Lists -> 0

(* Caller holds the engine mutex. *)
let take_next sh =
  let rec go i =
    if i >= priorities then None
    else if Queue.is_empty sh.sh_queues.(i) then go (i + 1)
    else Some (Queue.pop sh.sh_queues.(i))
  in
  go 0

let execute t req meter =
  let config = t.eng_config in
  match req with
  | Check { vm; module_name } ->
      let r =
        Orchestrator.check_module ~config t.eng_cloud ~target_vm:vm
          ~module_name
      in
      (match r with
      | Ok o ->
          List.iter
            (fun w -> Meter.merge meter w.Orchestrator.work_meter)
            o.Orchestrator.work
      | Error _ -> ());
      Checked r
  | Survey { module_name } ->
      Surveyed (Orchestrator.survey ~config ~meter t.eng_cloud ~module_name)
  | Lists -> Listed (Orchestrator.survey_module_lists ~config ~meter t.eng_cloud)

let service t sh e =
  let started = now () in
  let wait_s = started -. e.e_submitted in
  let meter = Meter.create () in
  let result =
    Tel.with_span
      ~attrs:
        [ ("request", String (request_key e.e_request)); ("shard", Int sh.sh_id) ]
      "engine.request"
    @@ fun _sp ->
    try Ok (execute t e.e_request meter)
    with exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  let service_s = now () -. started in
  Mutex.lock t.eng_mutex;
  Meter.merge t.eng_meter meter;
  Meter.merge sh.sh_meter meter;
  Hashtbl.remove t.eng_pending e.e_request;
  t.eng_completed <- t.eng_completed + 1;
  sh.sh_serviced <- sh.sh_serviced + 1;
  sh.sh_busy_s <- sh.sh_busy_s +. service_s;
  Mutex.unlock t.eng_mutex;
  if Tel.enabled () then begin
    Tel.add "engine.completed" 1;
    Tel.observe "engine.wait_s" wait_s;
    Tel.observe "engine.service_s" service_s;
    Tel.add sh.sh_serviced_metric 1;
    Tel.set_gauge sh.sh_busy_metric sh.sh_busy_s
  end;
  match result with
  | Ok outcome ->
      Deferred.fill e.e_cell
        (Ok
           {
             r_request = e.e_request;
             r_outcome = outcome;
             r_meter = meter;
             r_shard = sh.sh_id;
             r_wait_s = wait_s;
             r_service_s = service_s;
           })
  | Error (exn, bt) -> Deferred.fill_error e.e_cell exn bt

let dispatcher t sh =
  let rec loop () =
    Mutex.lock t.eng_mutex;
    let rec next () =
      match take_next sh with
      | Some e ->
          t.eng_queued <- t.eng_queued - 1;
          Tel.set_gauge "engine.queue.depth" (float_of_int t.eng_queued);
          Some e
      | None ->
          if t.eng_draining then None
          else begin
            Condition.wait sh.sh_cond t.eng_mutex;
            next ()
          end
    in
    let taken = next () in
    Mutex.unlock t.eng_mutex;
    match taken with
    | None -> ()  (* draining and this shard's queues are empty *)
    | Some e ->
        service t sh e;
        loop ()
  in
  loop ()

let create ?(shards = 2) ?(queue_bound = 64)
    ?(config = Orchestrator.Config.default) cloud =
  if shards < 1 then invalid_arg "Mc_engine.create: shards must be >= 1";
  if queue_bound < 1 then
    invalid_arg "Mc_engine.create: queue_bound must be >= 1";
  let inc = Orchestrator.create_incremental () in
  let shard i =
    {
      sh_id = i;
      sh_cond = Condition.create ();
      sh_queues = Array.init priorities (fun _ -> Queue.create ());
      sh_meter = Meter.create ();
      sh_serviced = 0;
      sh_busy_s = 0.0;
      sh_serviced_metric = Printf.sprintf "engine.shard.%d.serviced" i;
      sh_busy_metric = Printf.sprintf "engine.shard.%d.busy_s" i;
    }
  in
  let t =
    {
      eng_cloud = cloud;
      eng_config =
        {
          config with
          Orchestrator.Config.mode = Orchestrator.Sequential;
          incremental = Some inc;
        };
      eng_inc = inc;
      eng_mutex = Mutex.create ();
      eng_shards = Array.init shards shard;
      eng_queue_bound = queue_bound;
      eng_pending = Hashtbl.create 64;
      eng_meter = Meter.create ();
      eng_queued = 0;
      eng_draining = false;
      eng_submitted = 0;
      eng_coalesced = 0;
      eng_rejected = 0;
      eng_completed = 0;
      eng_max_depth = 0;
      eng_run_backoffs = 0;
      eng_dispatchers = [];
    }
  in
  t.eng_dispatchers <-
    Array.to_list
      (Array.map (fun sh -> Domain.spawn (fun () -> dispatcher t sh))
         t.eng_shards);
  t

let submit ?(priority = Normal) t request =
  Mutex.lock t.eng_mutex;
  if t.eng_draining then begin
    t.eng_rejected <- t.eng_rejected + 1;
    Mutex.unlock t.eng_mutex;
    Tel.add "engine.rejected" 1;
    Error Draining
  end
  else
    match Hashtbl.find_opt t.eng_pending request with
    | Some e ->
        t.eng_coalesced <- t.eng_coalesced + 1;
        Mutex.unlock t.eng_mutex;
        Tel.add "engine.coalesce.hits" 1;
        Ok e.e_cell
    | None ->
        if t.eng_queued >= t.eng_queue_bound then begin
          t.eng_rejected <- t.eng_rejected + 1;
          Mutex.unlock t.eng_mutex;
          Tel.add "engine.rejected" 1;
          Error (Queue_full t.eng_queue_bound)
        end
        else begin
          let e =
            {
              e_request = request;
              e_cell = Deferred.create ();
              e_submitted = now ();
            }
          in
          let sh = t.eng_shards.(shard_of t request) in
          Hashtbl.replace t.eng_pending request e;
          Queue.push e sh.sh_queues.(priority_index priority);
          t.eng_queued <- t.eng_queued + 1;
          if t.eng_queued > t.eng_max_depth then
            t.eng_max_depth <- t.eng_queued;
          t.eng_submitted <- t.eng_submitted + 1;
          Tel.set_gauge "engine.queue.depth" (float_of_int t.eng_queued);
          Condition.signal sh.sh_cond;
          Mutex.unlock t.eng_mutex;
          Tel.add "engine.submitted" 1;
          Ok e.e_cell
        end

let queue_depth t =
  Mutex.lock t.eng_mutex;
  let d = t.eng_queued in
  Mutex.unlock t.eng_mutex;
  d

let backoff_delay_s ~attempt =
  let base = 0.0005 and cap = 0.05 in
  Float.min cap (base *. Float.of_int (1 lsl min (max 0 attempt) 10))

let run ?(priority = Normal) t request =
  let rec go attempt =
    match submit ~priority t request with
    | Ok cell -> Deferred.await cell
    | Error (Queue_full _) ->
        (* Real (not virtual) backoff: the queue drains at service speed,
           so each miss waits twice as long as the last, up to the cap —
           a saturated queue converges instead of being hammered at a
           fixed cadence. *)
        Mutex.lock t.eng_mutex;
        t.eng_run_backoffs <- t.eng_run_backoffs + 1;
        Mutex.unlock t.eng_mutex;
        Tel.add "engine.run.backoffs" 1;
        Unix.sleepf (backoff_delay_s ~attempt);
        go (attempt + 1)
    | Error Draining -> failwith "Mc_engine.run: engine is draining"
  in
  go 0

let drain t =
  Mutex.lock t.eng_mutex;
  t.eng_draining <- true;
  Array.iter (fun sh -> Condition.broadcast sh.sh_cond) t.eng_shards;
  let dispatchers = t.eng_dispatchers in
  t.eng_dispatchers <- [];
  Mutex.unlock t.eng_mutex;
  (* Dispatchers keep servicing until their queues are empty, so joining
     them is what guarantees every admitted deferred is settled. *)
  List.iter Domain.join dispatchers

type stats = {
  st_submitted : int;
  st_coalesced : int;
  st_rejected : int;
  st_completed : int;
  st_max_queue_depth : int;
  st_run_backoffs : int;
  st_per_shard_serviced : int array;
  st_per_shard_busy_s : float array;
}

let stats t =
  Mutex.lock t.eng_mutex;
  let s =
    {
      st_submitted = t.eng_submitted;
      st_coalesced = t.eng_coalesced;
      st_rejected = t.eng_rejected;
      st_completed = t.eng_completed;
      st_max_queue_depth = t.eng_max_depth;
      st_run_backoffs = t.eng_run_backoffs;
      st_per_shard_serviced =
        Array.map (fun sh -> sh.sh_serviced) t.eng_shards;
      st_per_shard_busy_s = Array.map (fun sh -> sh.sh_busy_s) t.eng_shards;
    }
  in
  Mutex.unlock t.eng_mutex;
  s

let meter t = t.eng_meter

let shard_meters t = Array.map (fun sh -> sh.sh_meter) t.eng_shards

let cloud t = t.eng_cloud

let anchor_root t request =
  let root vm module_name =
    Orchestrator.merkle_root t.eng_inc t.eng_cloud ~vm ~module_name
  in
  let scan ?first module_name =
    let vms = List.init (Cloud.vm_count t.eng_cloud) Fun.id in
    let order =
      match first with
      | Some vm -> vm :: List.filter (fun v -> v <> vm) vms
      | None -> vms
    in
    List.find_map (fun vm -> root vm module_name) order
  in
  match request with
  | Check { vm; module_name } -> scan ~first:vm module_name
  | Survey { module_name } -> scan module_name
  | Lists -> None
