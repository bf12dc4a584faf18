(* Determinism of the benchmark's inputs: a seed fixes every workload's
   fingerprint and the exact work check-cold does; another seed changes
   the fingerprints. *)

open Perfbench

let fingerprints =
  [
    ("stream-warm", Stream_warm.fingerprint);
    ("check-cold", Check_cold.fingerprint);
    ("patrol-churn", Patrol_churn.fingerprint);
  ]

let () =
  List.iter
    (fun (name, fp) ->
      let a = fp ~seed:1 and b = fp ~seed:1 and c = fp ~seed:2 in
      if a <> b then failwith (name ^ ": same seed, different fingerprints");
      if a = c then failwith (name ^ ": different seeds, same fingerprint"))
    fingerprints;
  let a = Check_cold.meter_counts ~seed:3 ~ops:3
  and b = Check_cold.meter_counts ~seed:3 ~ops:3 in
  if a <> b then failwith "check-cold: same seed, different meter counts";
  if List.assoc "searcher.pages_mapped" a = 0 then
    failwith "check-cold: no pages mapped";
  print_endline "perfbench selftest: ok"
