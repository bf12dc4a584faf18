type t = {
  tasks : (unit -> unit) Chan.t;
  workers : unit Domain.t array;
  mutable alive : bool;
}

let worker_loop tasks =
  let rec loop () =
    match Chan.pop tasks with
    | f ->
        f ();
        loop ()
    | exception Chan.Closed -> ()
  in
  loop ()

let create n =
  if n <= 0 then invalid_arg "Pool.create: need a positive worker count";
  let tasks = Chan.create () in
  let workers = Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop tasks)) in
  { tasks; workers; alive = true }

let size t = Array.length t.workers

let shut_down_exn = Invalid_argument "Pool.run: pool is shut down"

let run t task =
  if not t.alive then raise shut_down_exn;
  let d = Deferred.create () in
  (* Telemetry: time-in-queue and time-on-worker histograms. The enqueue
     timestamp is taken here (submitter side) so queue wait includes the
     channel handoff. *)
  let observed = Mc_telemetry.Registry.enabled () in
  let enqueued = if observed then Mc_telemetry.Clock.wall () else 0.0 in
  let work () =
    let started =
      if observed then begin
        let now = Mc_telemetry.Clock.wall () in
        Mc_telemetry.Registry.observe "pool.queue_wait_s" (now -. enqueued);
        now
      end
      else 0.0
    in
    let r =
      try Ok (task ())
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    if observed then begin
      Mc_telemetry.Registry.observe "pool.task_run_s"
        (Mc_telemetry.Clock.wall () -. started);
      Mc_telemetry.Registry.add "pool.tasks" 1;
      if Result.is_error r then Mc_telemetry.Registry.add "pool.task_errors" 1
    end;
    match r with
    | Ok v -> Deferred.fill d (Ok v)
    | Error (e, bt) -> Deferred.fill_error d e bt
  in
  (* [alive] above is only a fast path: a concurrent [shutdown] may close
     the channel between the check and this push. The closed channel
     refuses the task, and the deferred is filled with the error so
     [await] fails fast instead of hanging on a task no worker will ever
     run. *)
  (try Chan.push t.tasks work
   with Chan.Closed -> Deferred.fill d (Error shut_down_exn));
  d

let parallel_map t f xs =
  let handles = List.map (fun x -> run t (fun () -> f x)) xs in
  (* Await everything before re-raising so no task outlives the call. *)
  let results =
    List.map
      (fun d ->
        try Ok (Deferred.await d)
        with e -> Error (e, Printexc.get_raw_backtrace ()))
      handles
  in
  List.map
    (function
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    results

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Chan.close t.tasks;
    Array.iter Domain.join t.workers
  end

let with_pool n f =
  let t = create n in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      shutdown t;
      raise e
