(* Deterministic fault injection for the simulated hypervisor interface.

   Decisions are stateless: each one is a pure hash of (plan seed, domain
   salt, fault stream, pfn, attempt). That makes the fault pattern
   independent of read order, cache behaviour, and worker scheduling — the
   same (dom, pfn, attempt) triple always faults the same way, whether the
   survey runs on the calling domain or on an engine shard, so experiments
   stay bit-reproducible. *)

type spec = {
  transient_rate : float;
  paged_out_rate : float;
  torn_rate : float;
  pause_fail_rate : float;
  fault_seed : int;
}

let none =
  {
    transient_rate = 0.0;
    paged_out_rate = 0.0;
    torn_rate = 0.0;
    pause_fail_rate = 0.0;
    fault_seed = 0;
  }

let is_none s =
  s.transient_rate = 0.0 && s.paged_out_rate = 0.0 && s.torn_rate = 0.0
  && s.pause_fail_rate = 0.0

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    Error (Printf.sprintf "fault spec: %s=%g is not a probability" what r)
  else Ok ()

let validate s =
  let ( let* ) = Result.bind in
  let* () = check_rate "transient" s.transient_rate in
  let* () = check_rate "paged" s.paged_out_rate in
  let* () = check_rate "torn" s.torn_rate in
  let* () = check_rate "pause" s.pause_fail_rate in
  Ok s

(* "transient=0.05,paged=0.01,torn=0.02,pause=0,seed=7" — any subset of
   keys, remaining fields zero. *)
let of_string str =
  let ( let* ) = Result.bind in
  let parts =
    String.split_on_char ',' (String.trim str)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse_field acc part =
    let* acc = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" part)
    | Some i -> (
        let key = String.sub part 0 i in
        let value = String.sub part (i + 1) (String.length part - i - 1) in
        let float_v () =
          match float_of_string_opt value with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "fault spec: bad number %S for %s" value key)
        in
        match key with
        | "transient" ->
            let* v = float_v () in
            Ok { acc with transient_rate = v }
        | "paged" | "paged_out" ->
            let* v = float_v () in
            Ok { acc with paged_out_rate = v }
        | "torn" ->
            let* v = float_v () in
            Ok { acc with torn_rate = v }
        | "pause" ->
            let* v = float_v () in
            Ok { acc with pause_fail_rate = v }
        | "seed" -> (
            match int_of_string_opt value with
            | Some n -> Ok { acc with fault_seed = n }
            | None ->
                Error (Printf.sprintf "fault spec: bad seed %S" value))
        | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
  in
  let* s = List.fold_left parse_field (Ok none) parts in
  validate s

let to_string s =
  Printf.sprintf "transient=%g,paged=%g,torn=%g,pause=%g,seed=%d"
    s.transient_rate s.paged_out_rate s.torn_rate s.pause_fail_rate
    s.fault_seed

type kind = Transient | Paged_out | Torn

let kind_name = function
  | Transient -> "transient"
  | Paged_out -> "paged_out"
  | Torn -> "torn"

(* A paged-out frame stays unmappable however often Dom0 asks; transient
   map failures and torn copies are per-attempt artifacts. *)
let retryable = function Transient | Torn -> true | Paged_out -> false

type t = { t_spec : spec; salt : int; pause_seq : int Atomic.t }

let create ?(salt = 0) spec = { t_spec = spec; salt; pause_seq = Atomic.make 0 }

let spec t = t.t_spec

(* SplitMix64 finalizer — the same mixer Mc_util.Rng streams from. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let combine h v =
  mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) (Int64.of_int v))

(* Uniform draw in [0,1) from the decision coordinates. *)
let draw t ~stream ~a ~b =
  let h = Int64.of_int t.t_spec.fault_seed in
  let h = combine h t.salt in
  let h = combine h stream in
  let h = combine h a in
  let h = combine h b in
  (* 53 uniform mantissa bits, like Rng.float. *)
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let hits t rate ~stream ~a ~b = rate > 0.0 && draw t ~stream ~a ~b < rate

let map_outcome t ~pfn ~attempt =
  if is_none t.t_spec then None
  else if hits t t.t_spec.paged_out_rate ~stream:1 ~a:pfn ~b:0 then
    Some Paged_out
  else if hits t t.t_spec.transient_rate ~stream:2 ~a:pfn ~b:attempt then
    Some Transient
  else if hits t t.t_spec.torn_rate ~stream:3 ~a:pfn ~b:attempt then Some Torn
  else None

let pause_fails t =
  t.t_spec.pause_fail_rate > 0.0
  &&
  let n = Atomic.fetch_and_add t.pause_seq 1 in
  hits t t.t_spec.pause_fail_rate ~stream:4 ~a:n ~b:0
