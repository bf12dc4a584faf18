(* End-to-end tests of the modchecker CLI binary: exit codes and output
   shapes for each subcommand. The binary path comes from the dune rule's
   dependency (see test/dune). *)

let exe =
  (* Under `dune runtest` the cwd is _build/default/test; under
     `dune exec test/test_cli.exe` it is the project root. *)
  let candidates =
    [
      "../bin/modchecker_cli.exe";
      "_build/default/bin/modchecker_cli.exe";
      "bin/modchecker_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "modchecker_cli.exe"

let run args =
  let out_file = Filename.temp_file "modchecker_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote out_file)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out_file in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove out_file;
  (code, out)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let check = Alcotest.check

let test_check_clean () =
  let code, out = run "check --vms 3 --module hal.dll" in
  check Alcotest.int "exit 0" 0 code;
  Alcotest.(check bool) "verdict line" true (contains out "INTACT (2/2)")

let test_check_infected_exit_code () =
  let code, out = run "check --vms 3 --module hal.dll --infect hook --vm 1" in
  check Alcotest.int "exit 2 on detection" 2 code;
  Alcotest.(check bool) "suspicious" true (contains out "SUSPICIOUS");
  Alcotest.(check bool) "artifact table" true (contains out "MISMATCH")

let test_check_json () =
  let code, out = run "check --vms 3 --module hal.dll --json" in
  check Alcotest.int "exit 0" 0 code;
  Alcotest.(check bool) "json keys" true
    (contains out "\"majority_ok\": true" && contains out "\"module\": \"hal.dll\"")

let test_check_pinpoint () =
  let code, out =
    run "check --vms 3 --module hal.dll --infect opcode --vm 1 --pinpoint"
  in
  check Alcotest.int "exit 2" 2 code;
  Alcotest.(check bool) "names the function" true
    (contains out "HalInitSystem")

(* Pinpointing takes its reference from the VMs that voted: a peer
   paged out under the fault plan (Dom1 here, seed 10) is passed over
   for the first comparison VM that answered with a copy. *)
let test_check_pinpoint_unreachable_peer () =
  let code, out =
    run
      "check --vms 5 --vm 2 --infect hook --pinpoint --fault-spec \
       paged=0.01,seed=10"
  in
  check Alcotest.int "exit 2" 2 code;
  Alcotest.(check bool) "pinpoints against a VM that voted" true
    (contains out "pinpoint (vs Dom2):\n  HalInitSystem");
  Alcotest.(check bool) "not against the unreachable Dom1" false
    (contains out "pinpoint (vs Dom1)" || contains out "could not fetch")

let test_survey () =
  let code, out = run "survey --vms 4 --module hal.dll --infect hook --vm 2" in
  check Alcotest.int "exit 2" 2 code;
  Alcotest.(check bool) "deviant named" true (contains out "Dom3")

let test_list_modules () =
  let code, out = run "list-modules --vms 2 --vm 0" in
  check Alcotest.int "exit 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains out name))
    Mc_pe.Catalog.standard_modules

let test_health () =
  let code, out = run "health --vms 3 --infect hide --vm 1" in
  check Alcotest.int "exit 2" 2 code;
  Alcotest.(check bool) "fleet verdict" true (contains out "FLEET SUSPICIOUS");
  let code, out = run "health --vms 3" in
  check Alcotest.int "clean exit 0" 0 code;
  Alcotest.(check bool) "clean verdict" true (contains out "FLEET CLEAN")

let test_patrol () =
  let code, out =
    run
      "patrol --vms 3 --duration 45 --interval 15 --infect hook --vm 1 \
       --infect-at 16"
  in
  check Alcotest.int "exit 2 when alarms" 2 code;
  Alcotest.(check bool) "alarm logged" true (contains out "hash deviation")

let test_patrol_adversary () =
  let toctou =
    "patrol --adversary toctou --vms 4 --vm 1 --duration 240 --period 60"
  in
  let code, out =
    run (toctou ^ " --infect-at 1 --dwell 25 --interval 30")
  in
  check Alcotest.int "phased poll-30 run evades: exit 0" 0 code;
  Alcotest.(check bool) "EVADED reported" true (contains out "EVADED");
  Alcotest.(check bool) "adversary banner" true
    (contains out "adversary: toctou on Dom2");
  let code, out = run (toctou ^ " --infect-at 65 --dwell 5 --event-driven") in
  check Alcotest.int "write traps catch it: exit 2" 2 code;
  Alcotest.(check bool) "detected" true
    (contains out "detected" && not (contains out "EVADED"))

let test_usage_errors () =
  let usage args =
    let code, _ = run args in
    check Alcotest.int (args ^ " exits 124") 124 code
  in
  List.iter usage
    [
      "evade --strategy toctou --vms 4";
      "patrol --adversary toctou --infect hook";
      "check --vms 0";
      "check --vms 3 --vm 5";
      "check --vms 3 --vm=-1";
      "survey --vms 3 --vm 3";
      "list-modules --vms 2 --vm 2";
      "health --vms 3 --vm 3";
      "serve --vms 3 --vm 3 --requests /dev/null";
      "serve --workers 2 --requests /dev/null";
      "serve -j 2 --requests /dev/null";
      "disasm --vms 2 --vm 2";
      "patrol --vms 2 --vm 2 --duration 10";
      "federate --infect hook --vm 9";
      "patrol --vms 2 --duration 10 --quorum 1.5";
      "patrol --vms 2 --duration 10 --quorum nan";
      "survey --vms 2 --quorum=-0.5";
      "federate --host-quorum 1.5";
      "simtest --steps 1 --quorum 2";
      "serve --shards 0 --requests /dev/null";
      "serve --queue-bound 0 --requests /dev/null";
      "serve --stream --window 0 --requests /dev/null";
      "check --deadline 1";
      "check -j 4";
      "check --workers 4";
      "federate -j 2";
      "federate --workers 2";
    ]

let test_figures_fig9 () =
  let code, out = run "figures --which fig9" in
  check Alcotest.int "exit 0" 0 code;
  check Alcotest.string "same bytes as the in-process render"
    (Mc_harness.Render.fig9 (Mc_harness.Figures.fig9_guest_impact ()))
    out

let test_bad_arguments () =
  let code, _ = run "check --infect nonsense" in
  Alcotest.(check bool) "cmdliner rejects" true (code <> 0);
  let code, _ = run "no-such-command" in
  Alcotest.(check bool) "unknown command rejected" true (code <> 0)

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        [
          Alcotest.test_case "check clean" `Quick test_check_clean;
          Alcotest.test_case "check infected" `Quick
            test_check_infected_exit_code;
          Alcotest.test_case "check json" `Quick test_check_json;
          Alcotest.test_case "check pinpoint" `Quick test_check_pinpoint;
          Alcotest.test_case "pinpoint unreachable peer" `Quick
            test_check_pinpoint_unreachable_peer;
          Alcotest.test_case "survey" `Quick test_survey;
          Alcotest.test_case "list-modules" `Quick test_list_modules;
          Alcotest.test_case "health" `Quick test_health;
          Alcotest.test_case "patrol" `Quick test_patrol;
          Alcotest.test_case "patrol adversary" `Quick test_patrol_adversary;
          Alcotest.test_case "usage errors" `Quick test_usage_errors;
          Alcotest.test_case "figures fig9" `Quick test_figures_fig9;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
        ] );
    ]
