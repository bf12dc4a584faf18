module Dom = Mc_hypervisor.Dom
module Loader = Mc_winkernel.Loader
module Vmi = Mc_vmi.Vmi
module Symbols = Mc_vmi.Symbols
module Searcher = Modchecker.Searcher
module Parser = Modchecker.Parser
module Checker = Modchecker.Checker

type verdict = {
  lkim_module : string;
  mismatched : Modchecker.Artifact.kind list;
  clean : bool;
}

let ( let* ) = Result.bind

let check dom ~module_name ~reference =
  let vmi = Vmi.init dom Symbols.windows_xp_sp2 in
  let* info, memory_image =
    match Searcher.fetch vmi ~name:module_name with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%s is not loaded" module_name)
  in
  let* simulated =
    Loader.simulate_load reference ~base:info.Searcher.mi_base
    |> Result.map_error Loader.error_to_string
  in
  let* mem_artifacts = Parser.artifacts memory_image in
  let* ref_artifacts = Parser.artifacts simulated in
  let pair =
    Checker.compare_pair ~base1:info.Searcher.mi_base mem_artifacts
      ~base2:info.Searcher.mi_base ref_artifacts
  in
  let mismatched =
    List.filter_map
      (fun v -> if v.Checker.av_match then None else Some v.Checker.av_kind)
      pair.Checker.verdicts
  in
  Ok { lkim_module = module_name; mismatched; clean = mismatched = [] }
