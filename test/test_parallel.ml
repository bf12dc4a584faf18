(* Tests for the domain pool: channel, deferred cells, and parallel map. *)

module Chan = Mc_parallel.Chan
module Deferred = Mc_parallel.Deferred
module Pool = Mc_parallel.Pool

let check = Alcotest.check

let test_chan_fifo () =
  let c = Chan.create () in
  Chan.push c 1;
  Chan.push c 2;
  Chan.push c 3;
  check Alcotest.int "len" 3 (Chan.length c);
  check Alcotest.int "fifo 1" 1 (Chan.pop c);
  check Alcotest.int "fifo 2" 2 (Chan.pop c);
  check Alcotest.(option int) "try_pop" (Some 3) (Chan.try_pop c);
  check Alcotest.(option int) "empty" None (Chan.try_pop c);
  check Alcotest.int "len 0" 0 (Chan.length c)

let test_chan_cross_domain () =
  let c = Chan.create () in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 100 do
          Chan.push c i
        done)
  in
  let sum = ref 0 in
  for _ = 1 to 100 do
    sum := !sum + Chan.pop c
  done;
  Domain.join producer;
  check Alcotest.int "all received" 5050 !sum

let test_deferred () =
  let d = Deferred.create () in
  Alcotest.(check bool) "not filled" false (Deferred.is_filled d);
  Deferred.fill d (Ok 42);
  Alcotest.(check bool) "filled" true (Deferred.is_filled d);
  check Alcotest.int "await" 42 (Deferred.await d);
  check Alcotest.int "await is idempotent" 42 (Deferred.await d);
  Alcotest.check_raises "double fill"
    (Invalid_argument "Deferred.fill: already filled") (fun () ->
      Deferred.fill d (Ok 0))

let test_deferred_error () =
  let d = Deferred.create () in
  Deferred.fill d (Error Exit);
  Alcotest.check_raises "re-raises" Exit (fun () -> ignore (Deferred.await d))

let test_pool_run () =
  Pool.with_pool 2 (fun pool ->
      check Alcotest.int "size" 2 (Pool.size pool);
      let d = Pool.run pool (fun () -> 6 * 7) in
      check Alcotest.int "result" 42 (Deferred.await d))

let test_pool_parallel_map_order () =
  Pool.with_pool 3 (fun pool ->
      let xs = List.init 50 Fun.id in
      let ys = Pool.parallel_map pool (fun x -> x * x) xs in
      check Alcotest.(list int) "order preserved" (List.map (fun x -> x * x) xs) ys)

let test_pool_parallel_map_exception () =
  Pool.with_pool 2 (fun pool ->
      Alcotest.check_raises "propagates" Exit (fun () ->
          ignore
            (Pool.parallel_map pool
               (fun x -> if x = 3 then raise Exit else x)
               [ 1; 2; 3; 4 ])));
  (* The pool that raised is still shut down cleanly by with_pool. *)
  ()

let test_pool_shutdown_idempotent () =
  let pool = Pool.create 2 in
  ignore (Deferred.await (Pool.run pool (fun () -> 1)));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool (fun () -> 2)))

let test_pool_create_invalid () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Pool.create: need a positive worker count") (fun () ->
      ignore (Pool.create 0))

let test_pool_heavy_tasks () =
  (* Many tasks, shared result check — exercises queueing beyond pool size. *)
  Pool.with_pool 4 (fun pool ->
      let results =
        Pool.parallel_map pool
          (fun i ->
            let h = Mc_md5.Md5.to_hex (Mc_md5.Md5.digest_string (string_of_int i)) in
            String.length h)
          (List.init 200 Fun.id)
      in
      Alcotest.(check bool) "all 32" true (List.for_all (fun n -> n = 32) results))

let test_chan_close () =
  let c = Chan.create () in
  Chan.push c 1;
  Chan.push c 2;
  Chan.close c;
  Alcotest.(check bool) "is_closed" true (Chan.is_closed c);
  Alcotest.check_raises "push after close" Chan.Closed (fun () ->
      Chan.push c 3);
  (* Queued elements drain before the closure is observed... *)
  check Alcotest.int "drain 1" 1 (Chan.pop c);
  check Alcotest.int "drain 2" 2 (Chan.pop c);
  (* ...then pop fails fast instead of blocking forever. *)
  Alcotest.check_raises "pop after drain" Chan.Closed (fun () ->
      ignore (Chan.pop c));
  check Alcotest.(option int) "try_pop after drain" None (Chan.try_pop c);
  Chan.close c (* idempotent *)

(* Regression: [Pool.run] used to check [alive], then push — a shutdown
   between the two left the task unqueued and its deferred unfilled, so
   awaiting it hung forever. Now a run racing shutdown either executes or
   fails fast with the shut-down exception; the deferred always settles. *)
let test_pool_shutdown_run_race () =
  for _round = 1 to 25 do
    let pool = Pool.create 2 in
    let go = Atomic.make false in
    let submitter =
      Domain.spawn (fun () ->
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          let ds = ref [] in
          (try
             for i = 1 to 200 do
               ds := Pool.run pool (fun () -> i) :: !ds
             done
           with Invalid_argument _ -> ());
          !ds)
    in
    Atomic.set go true;
    Pool.shutdown pool;
    let ds = Domain.join submitter in
    (* [shutdown] drained the queue and joined the workers, so every
       handle is settled by now: by its task, or by the shut-down error. *)
    List.iter
      (fun d ->
        if not (Deferred.is_filled d) then
          Alcotest.fail "shutdown race left a deferred unfilled";
        match Deferred.await d with
        | _ -> ()
        | exception Invalid_argument _ -> ())
      ds
  done

exception Task_boom

(* Kept non-tail-recursive so the task leaves identifiable frames. *)
let rec depth_charge n = if n = 0 then raise Task_boom else 1 + depth_charge (n - 1)

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pool_error_backtrace () =
  Printexc.record_backtrace true;
  Pool.with_pool 2 @@ fun pool ->
  match Pool.parallel_map pool (fun n -> depth_charge n) [ 5 ] with
  | _ -> Alcotest.fail "expected Task_boom"
  | exception Task_boom ->
      (* parallel_map re-raises with the worker's backtrace, so the trace
         must point into the failing task, not into the await site. *)
      let bt = Printexc.get_backtrace () in
      Alcotest.(check bool)
        (Printf.sprintf "backtrace reaches the task: %s" bt)
        true
        (string_contains bt "test_parallel")

let () =
  Alcotest.run "parallel"
    [
      ( "chan",
        [
          Alcotest.test_case "fifo" `Quick test_chan_fifo;
          Alcotest.test_case "cross-domain" `Quick test_chan_cross_domain;
          Alcotest.test_case "close semantics" `Quick test_chan_close;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "fill/await" `Quick test_deferred;
          Alcotest.test_case "error" `Quick test_deferred_error;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run" `Quick test_pool_run;
          Alcotest.test_case "map order" `Quick test_pool_parallel_map_order;
          Alcotest.test_case "map exception" `Quick
            test_pool_parallel_map_exception;
          Alcotest.test_case "error backtrace" `Quick test_pool_error_backtrace;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "shutdown/run race" `Quick
            test_pool_shutdown_run_race;
          Alcotest.test_case "create invalid" `Quick test_pool_create_invalid;
          Alcotest.test_case "heavy tasks" `Quick test_pool_heavy_tasks;
        ] );
    ]
