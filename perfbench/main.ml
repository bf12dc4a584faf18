(* Wall-clock benchmark of the ModChecker reproduction.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (stream-warm, check-cold or patrol-churn, see their
   modules) for S seconds on inputs generated from seed N. With --trace 0
   it reports the end-to-end metrics, measured with telemetry off; with
   --trace 1 the per-layer metrics, from a run split into untraced and
   traced slices plus direct probes of each layer. Every answer is checked
   against the workload's oracle. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

   An untraced run measures in [children] fresh processes, one after the
   other, each set up from scratch and given an equal share of S, and
   reports the median of their figures. On a shared host one process can
   run 15 % faster or slower than the next for its whole life, while one
   process varies much less over its run; the median over processes is
   what makes a run repeat. *)

open Perfbench
open Common
module Json = Mc_util.Json

(* Each workload: its run and the fingerprint of its seeded inputs. *)
let workloads =
  [
    ("stream-warm", (Stream_warm.run, Stream_warm.fingerprint));
    ("check-cold", (Check_cold.run, Check_cold.fingerprint));
    ("patrol-churn", (Patrol_churn.run, Patrol_churn.fingerprint));
  ]

let children = 5

let usage () =
  prerr_endline
    "usage: main.exe --workload stream-warm|check-cold|patrol-churn --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  child : bool;  (** One measuring process of an untraced run. *)
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let num conv key = match conv (get key) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = num float_of_string_opt "--seconds" and trace = num int_of_string_opt "--trace" in
  if not (seconds > 0.0 && (trace = 0 || trace = 1)) then usage ();
  {
    workload;
    seed = num int_of_string_opt "--seed";
    seconds;
    trace = trace = 1;
    child = List.mem_assoc "--child" kv;
  }

(* The commit the tree was built from, when it is a git checkout. *)
let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed ref =
    Option.bind (read ".git/packed-refs") (fun packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; r ] when r = ref -> Some rev
               | _ -> None))
  in
  match Option.map (String.split_on_char ' ') (read ".git/HEAD") with
  | None -> "none"
  | Some [ "ref:"; ref ] -> (
      match read (Filename.concat ".git" ref) with
      | Some rev -> rev
      | None -> Option.value ~default:"none" (packed ref))
  | Some parts -> String.concat " " parts

(* One process's figures, as its result line carries them. *)
type figures = {
  f_attempted : int;
  f_failed : int;
  f_metrics : (string * float) list;
  f_engine_shards : int;
}

let print_result ~correct ~attempted ~failed ~wanted value =
  let metrics =
    List.map
      (fun name ->
        Printf.sprintf "%S: {\"value\": %.15g, \"unit\": %S}" name (value name)
          (List.assoc name units))
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

let run_here a =
  let run, _ = List.assoc a.workload workloads in
  let r =
    Fun.protect ~finally:cleanup_tmp (fun () ->
        run ~trace:a.trace ~seed:a.seed ~seconds:a.seconds)
  in
  List.iter (fun n -> Printf.eprintf "oracle: %s\n%!" n) r.r_notes;
  {
    f_attempted = r.r_attempted;
    f_failed = r.r_failed;
    f_metrics = r.r_metrics;
    f_engine_shards = r.r_engine_shards;
  }

(* A child prints its figures as one JSON line for its parent, every
   value with all its digits. *)
let child_line f =
  Printf.sprintf "{\"attempted\": %d, \"failed\": %d, \"engine_shards\": %d, \"metrics\": {%s}}"
    f.f_attempted f.f_failed f.f_engine_shards
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) f.f_metrics))

let figures_of_line line =
  let open Json in
  let num = function Int n -> float_of_int n | Float f -> f | _ -> nan in
  match of_string line with
  | Ok (Obj kv) -> (
      match
        ( List.assoc_opt "attempted" kv,
          List.assoc_opt "failed" kv,
          List.assoc_opt "engine_shards" kv,
          List.assoc_opt "metrics" kv )
      with
      | Some (Int attempted), Some (Int failed), Some (Int shards), Some (Obj m) ->
          {
            f_attempted = attempted;
            f_failed = failed;
            f_metrics = List.map (fun (k, v) -> (k, num v)) m;
            f_engine_shards = shards;
          }
      | _ -> failwith ("malformed child result: " ^ line))
  | _ -> failwith ("malformed child result: " ^ line)

(* Run one measuring process and wait for it. *)
let spawn a ~seconds =
  let argv =
    [| Sys.executable_name; "--workload"; a.workload; "--seed";
       string_of_int a.seed; "--seconds"; Printf.sprintf "%.17g" seconds;
       "--trace"; "0"; "--child"; "1" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> figures_of_line (String.trim out)
  | _ -> failwith "a measuring process failed"

let () =
  let a = parse_args () in
  if a.child then print_endline (child_line (run_here a))
  else begin
    let runs =
      if a.trace then [ run_here a ]
      else
        List.init children (fun _ ->
            spawn a ~seconds:(a.seconds /. float_of_int children))
    in
    let first = List.hd runs in
    let wanted = if a.trace then per_layer_names else end_to_end_names in
    let value name =
      median
        (List.map
           (fun f -> Option.value ~default:0.0 (List.assoc_opt name f.f_metrics))
           runs)
    in
    let attempted = List.fold_left (fun acc f -> acc + f.f_attempted) 0 runs
    and failed = List.fold_left (fun acc f -> acc + f.f_failed) 0 runs in
    List.iter
      (fun name ->
        if not (List.mem_assoc name first.f_metrics) then
          Printf.eprintf "%s: not on this workload's path, reported as 0\n" name)
      wanted;
    Printf.printf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"processes\": %d, \
       \"fingerprint\": %S, \"cores\": %d, \"ocaml\": %S, \"git_rev\": %S, \
       \"engine_shards\": %d}\n"
      a.workload a.seed a.trace (List.length runs)
      ((snd (List.assoc a.workload workloads)) ~seed:a.seed)
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (git_rev ()) first.f_engine_shards;
    List.iter
      (fun name ->
        Printf.printf "%-36s %14.4f %s\n" name (value name) (List.assoc name units))
      wanted;
    print_result ~correct:(failed = 0 && attempted > 0) ~attempted ~failed ~wanted value
  end
