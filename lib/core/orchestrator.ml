module Cloud = Mc_hypervisor.Cloud
module Dom = Mc_hypervisor.Dom
module Meter = Mc_hypervisor.Meter
module Costs = Mc_hypervisor.Costs
module Xenctl = Mc_hypervisor.Xenctl
module Vmi = Mc_vmi.Vmi
module Symbols = Mc_vmi.Symbols
module Tel = Mc_telemetry.Registry
module Span = Mc_telemetry.Span
module Md5 = Mc_md5.Md5
module Merkle = Mc_md5.Merkle

type vm_work = { work_vm : int; work_meter : Meter.t }

type outcome = { report : Report.module_report; work : vm_work list }

type fingerprint = (string * string) list

(* The Merkle representation of one VM's copy of a module: header
   artifacts keep flat digests (they are small and page-misaligned),
   section data carries a per-page-leaf tree over its canonical bytes
   (stripped in place by [Checker.own]), and the page index maps each guest
   frame backing a section to the leaves whose canonical content depends
   on it — a leaf depends on its own pages plus up to [reloc_margin]
   bytes of each neighbour (a 4-byte reloc slot can straddle the leaf
   boundary). The derived fingerprint (flat digests + root digests,
   sorted by kind) compares exactly like [vm_fingerprint]'s, so voting
   and escalation are unchanged. The fingerprint and its anchor digest
   are derived once, by [seal_print], whenever a print is built or
   changed. *)
type merkle_print = {
  mp_base : int;
  mp_flat : (string * string) list;
  mp_sections : (string * int * Rva.slots option * Merkle.t) list;
      (** (kind name, section RVA, table stripped with, tree over the
          canonical bytes). *)
  mp_page_index : (int * (string * int) list) list;
      (** pfn → the (kind name, leaf index) pairs it backs. *)
  mp_fingerprint : fingerprint;
      (** Flat digests plus hex section roots, sorted by kind. *)
  mp_root : string;  (** Hex MD5 over [mp_fingerprint]. *)
}

type incremental = {
  inc_merkle : merkle_print option Digest_cache.t;
  inc_lists : string list Digest_cache.t;
  inc_pages : (int, int * Vmi.page_cache) Hashtbl.t;
      (** vm → the memory epoch its page cache maps, and the cache. *)
  inc_mutex : Mutex.t;  (** Guards [inc_pages]. *)
}

let create_incremental () =
  {
    inc_merkle = Digest_cache.create ();
    inc_lists = Digest_cache.create ();
    inc_pages = Hashtbl.create 16;
    inc_mutex = Mutex.create ();
  }

module Config = struct
  type nonrec t = {
    others : int list option;
    incremental : incremental option;
    quorum : float;
  }

  let default =
    {
      others = None;
      incremental = None;
      quorum = Report.default_quorum;
    }

  let with_others others t = { t with others = Some others }
  let with_incremental incremental t = { t with incremental = Some incremental }
  let with_merkle (_ : bool) t = t
  let with_quorum quorum t = { t with quorum }
end

(* Fetch one VM's copy of the module and parse it into artifacts, phased
   against [meter]. *)
let profile_for dom =
  Symbols.of_variant
    (Mc_winkernel.Kernel.os_variant (Mc_hypervisor.Dom.kernel_exn dom))

(* Fold one job's per-phase meter counts into the telemetry registry, so
   the metric totals and the meter-priced phase costs stay in agreement. *)
let bridge_meter meter =
  if Tel.enabled () then
    List.iter
      (fun phase ->
        Mc_telemetry.Bridge.add_counts
          ~prefix:("meter." ^ Meter.phase_key phase)
          (Meter.pairs (Meter.get meter phase)))
      [ Meter.Searcher; Meter.Parser; Meter.Checker ]

(* How one VM answered a fetch. [Absent] is an answer (the walk completed
   and the module is not there) and votes as a mismatch; [Unreachable] is
   the lack of an answer (faults exhausted the retries) and must not vote
   at all — counting it either way would let an availability failure
   masquerade as an integrity signal. *)
type 'a fetch_outcome = Fetched of 'a | Absent | Unreachable of string

let fault_reason e = Vmi.fault_message e

let unreachable_of_exn = function
  | Vmi.Fault _ as e -> Some (fault_reason e)
  | Xenctl.Pause_fault { pf_dom } ->
      Some (Printf.sprintf "pause hypercall failed on Dom%d" pf_dom)
  | _ -> None

(* One image buffer per domain, lent to the parser for one fetch at a
   time and reused by the next fetch of the same SizeOfImage: the parser
   copies out every artifact, so the image is dead once it returns, and a
   check's fetches of one module all reuse one buffer. A domain retains at
   most one buffer of at most [Searcher.max_module_size] bytes. *)
let image_buffer_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let image_buffer size =
  let cell = Domain.DLS.get image_buffer_key in
  if Bytes.length !cell <> size then cell := Bytes.create size;
  !cell

let fetch_with_vmi vmi ~vm ~module_name ~meter =
  Meter.set_phase meter Searcher;
  match
    Tel.with_span ~attrs:[ ("vm", Int vm) ] "searcher" (fun sp ->
        let r =
          Searcher.fetch ~meter ~buffer:image_buffer vmi ~name:module_name
        in
        (match r with
        | Some (_, buf) ->
            Span.set_attr sp "module_bytes" (Int (Bytes.length buf))
        | None -> Span.set_attr sp "found" (Bool false));
        r)
  with
  | None -> None
  | Some (info, buf) -> (
      Meter.set_phase meter Parser;
      match
        Tel.with_span ~attrs:[ ("vm", Int vm) ] "parser" (fun sp ->
            let r = Parser.artifacts ~meter buf in
            (match r with
            | Ok arts -> Span.set_attr sp "artifacts" (Int (List.length arts))
            | Error _ -> Span.set_attr sp "parse_error" (Bool true));
            r)
      with
      | Error _ -> None
      | Ok artifacts -> Some (info, artifacts))

let fetch_artifacts cloud ~vm ~module_name ~meter =
  let dom = Cloud.vm cloud vm in
  Meter.set_phase meter Searcher;
  let vmi = Vmi.init ~meter dom (profile_for dom) in
  match fetch_with_vmi vmi ~vm ~module_name ~meter with
  | Some (info, artifacts) -> Fetched (info, artifacts)
  | None -> Absent
  | exception e -> (
      match unreachable_of_exn e with
      | Some reason ->
          Tel.add "check.unreachable_fetches" 1;
          Unreachable reason
      | None -> raise e)

(* Split per-VM results, in VM order, into the VMs that answered (with
   their value), those where the module is absent, and those that could
   not be read (with the reason). *)
let partition_outcomes results =
  List.fold_right
    (fun (vm, outcome, _) (present, absent, unreachable) ->
      match outcome with
      | Fetched x -> ((vm, x) :: present, absent, unreachable)
      | Absent -> (present, vm :: absent, unreachable)
      | Unreachable reason -> (present, absent, (vm, reason) :: unreachable))
    results ([], [], [])

(* Every unordered pair of the list, once each, in list order. *)
let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

(* Pairwise agreement of per-VM values compared by equality. *)
let match_pairs values =
  List.map (fun ((v, a), (u, b)) -> ((v, u), a = b)) (pairs values)

(* A comparison VM that lacks the module (or whose copy does not even
   parse) fails the comparison outright: every target artifact is reported
   absent on the other side. *)
let absent_result target_artifacts =
  Checker.
    {
      verdicts =
        List.map
          (fun (a : Artifact.t) ->
            {
              av_kind = a.Artifact.kind;
              av_match = false;
              av_digest1 = "-";
              av_digest2 = "(absent)";
              av_adjusted = 0;
            })
          target_artifacts;
      all_match = false;
      total_adjusted = 0;
    }

(* Default comparison set: the target's version cohort. Comparing a
   patched build against an unpatched one would manufacture mismatches
   out of a legitimate version split. In a homogeneous pool this is the
   whole pool, as in the paper. *)
let default_others cloud ~target_vm =
  let cohort = Cloud.vm_patch_level cloud target_vm in
  List.filter
    (fun v -> v <> target_vm && Cloud.vm_patch_level cloud v = cohort)
    (List.init (Cloud.vm_count cloud) Fun.id)

(* A check only votes when the target answered; otherwise its work is
   still accounted and the check errors. *)
let target_error ~module_name ~target_vm meter ~unreachable =
  bridge_meter meter;
  Error
    (match unreachable with
    | Some reason -> Printf.sprintf "Dom%d unreachable: %s" (target_vm + 1) reason
    | None ->
        Printf.sprintf "module %s not found in Dom%d" module_name (target_vm + 1))

(* The tail both check paths share: vote over one comparison per
   reachable VM ([results] holds (vm, comparison, meter); an absent module
   is already a failed comparison), account the work, log the verdict. *)
let finish_check ~config ~module_name ~target_vm ~others ~target_meter
    ~fast_path results =
  let compared, _, unreachable = partition_outcomes results in
  let comparisons =
    List.map (fun (other_vm, result) -> { Report.other_vm; result }) compared
  in
  let work =
    { work_vm = target_vm; work_meter = target_meter }
    :: List.map
         (fun (vm, _, meter) -> { work_vm = vm; work_meter = meter })
         results
  in
  let report =
    Report.make ~module_name ~target_vm ~unreachable
      ~surveyed:(List.length others) ~quorum:config.Config.quorum comparisons
  in
  if Tel.enabled () then begin
    List.iter (fun w -> bridge_meter w.work_meter) work;
    Tel.add "check.modules_checked" 1;
    if fast_path then Tel.add "check.merkle_fast_path" 1;
    Tel.add "check.vms_compared" (List.length others);
    Tel.add "check.unreachable_vms" (List.length unreachable);
    match report.Report.verdict with
    | Report.Degraded _ -> Tel.add "check.degraded_verdicts" 1
    | Report.Infected -> Tel.add "check.failed_votes" 1
    | Report.Intact -> ()
  end;
  (match report.Report.verdict with
  | Report.Intact -> Log.debug (fun m -> m "%a" Report.pp report)
  | Report.Infected | Report.Degraded _ ->
      Log.warn (fun m -> m "%a" Report.pp report));
  Ok { report; work }

(* Where the golden copy of [name] holds its reloc slots. Unlike
   Algorithm 2 (which infers slots by diffing two copies), the golden
   tables strip each copy on its own, so a cacheable per-VM print does
   not depend on which other copies happened to be in the same survey. *)
let reloc_fallback name why =
  (* Without tables every print keeps its load-base-dependent bytes, and
     a clean pool looks deviant. That trade must be visible, not
     silent. *)
  Log.warn (fun m ->
      m "no reloc table for %s (%s): prints will not be base-stripped" name
        why);
  Tel.add "digest.reloc_fallbacks" 1

(* One validated slot table per hashable golden section, keyed by
   section name and carrying the golden section's RVA and in-memory
   length. *)
let parse_golden ~version name =
  match Mc_pe.Catalog.image ~version name with
  | exception e -> Error (Printexc.to_string e)
  | built -> (
      let file = built.Mc_pe.Catalog.file in
      match Mc_pe.Read.parse ~layout:Mc_pe.Read.File file with
      | Error e -> Error (Mc_pe.Read.error_to_string e)
      | Ok image -> (
          match
            Mc_pe.Read.base_relocations ~layout:Mc_pe.Read.File file image
          with
          | relocs ->
              Ok
                (List.filter_map
                   (fun ((sec : Mc_pe.Types.section_header), _) ->
                     if Parser.hashable_section sec then
                       Some
                         ( sec.sec_name,
                           Rva.slots_of_relocs
                             ~section_rva:sec.virtual_address
                             ~len:sec.virtual_size relocs )
                     else None)
                   image.Mc_pe.Types.sections)
          | exception e -> Error (Printexc.to_string e)))

(* Golden images are process-wide per (name, version), so their slot
   tables are too: parse each once, not on every warm request. Keyed like
   [Catalog.image]'s memo and locked because engine dispatcher domains
   probe concurrently. A failed parse is memoized as well. Nothing a
   guest supplies is part of a key. *)
let golden_memo :
    (string * int, ((string * Rva.slots) list, string) result) Hashtbl.t =
  Hashtbl.create 16

let golden_mutex = Mutex.create ()

let golden ~version name =
  let key = (String.lowercase_ascii name, version) in
  Mutex.protect golden_mutex (fun () ->
      match Hashtbl.find_opt golden_memo key with
      | Some r -> r
      | None ->
          let r = parse_golden ~version name in
          Hashtbl.add golden_memo key r;
          r)

let golden_tables_cached () =
  Mutex.protect golden_mutex (fun () -> Hashtbl.length golden_memo)

(* The golden table of a section by name. Checker only strips a guest
   section whose RVA and length are the golden section's. *)
let tables_of golden : Checker.slot_tables =
  match golden with
  | Error _ -> fun _ -> None
  | Ok tables -> (
      fun (a : Artifact.t) ->
        match a.Artifact.kind with
        | Artifact.Section_data sec -> List.assoc_opt sec tables
        | _ -> None)

(* Silent on a failed golden parse: for a cold check the tables only
   decide how often the canonical shortcut applies. *)
let slot_tables ?(version = 1) name = tables_of (golden ~version name)

(* Loud on a failed golden parse: a print's bytes depend on the tables. *)
let print_slot_tables ?(version = 1) name =
  let g = golden ~version name in
  Result.iter_error (reloc_fallback name) g;
  tables_of g

let check_module_full ~config ~others cloud ~target_vm ~module_name =
  Tel.with_span
    ~attrs:[ ("module", String module_name); ("target_vm", Int target_vm) ]
    "check_module"
  @@ fun _ ->
  Log.info (fun m ->
      m "checking %s on Dom%d against %d VM(s)" module_name (target_vm + 1)
        (List.length others));
  let target_meter = Meter.create () in
  match
    Tel.with_span ~attrs:[ ("vm", Int target_vm) ] "vm_check" (fun _ ->
        fetch_artifacts cloud ~vm:target_vm ~module_name ~meter:target_meter)
  with
  | Absent -> target_error ~module_name ~target_vm target_meter ~unreachable:None
  | Unreachable reason ->
      target_error ~module_name ~target_vm target_meter
        ~unreachable:(Some reason)
  | Fetched (target_info, target_artifacts) ->
      (* Every pair shares the target's side, so one memo per check lets
         each distinct adjusted buffer be hashed once, and the target is
         canonicalized once. Both die with the check: nothing a guest fed
         in outlives the request. Each fetched copy is owned by its side,
         which canonicalizes it in place. *)
      let memo = Checker.create_memo () in
      let slots =
        slot_tables ~version:(Cloud.vm_patch_level cloud target_vm) module_name
      in
      let target =
        Checker.own ~slots ~base:target_info.Searcher.mi_base target_artifacts
      in
      let compare_against vm =
        Tel.with_span ~attrs:[ ("vm", Int vm) ] "vm_check" @@ fun _ ->
        let meter = Meter.create () in
        let outcome =
          match fetch_artifacts cloud ~vm ~module_name ~meter with
          | Absent -> Fetched (absent_result target_artifacts)
          | Unreachable reason -> Unreachable reason
          | Fetched (info, artifacts) ->
              Meter.set_phase meter Checker;
              Fetched
                (Tel.with_span ~attrs:[ ("vm", Int vm) ] "checker" (fun sp ->
                     let r, decided =
                       Checker.compare_sides ~meter ~memo target
                         (Checker.own ~slots ~base:info.Searcher.mi_base
                            artifacts)
                     in
                     Span.set_attr sp "all_match" (Bool r.Checker.all_match);
                     Span.set_attr sp "canonical" (Int decided);
                     r))
        in
        (vm, outcome, meter)
      in
      finish_check ~config ~module_name ~target_vm ~others ~target_meter
        ~fast_path:false
        (List.map compare_against others)

(* One shareable page cache per VM, so successive sweeps (and the list
   walk and the module fetch within one sweep) reuse mapped pages instead
   of re-mapping them. Safe because Vmi validates every hit against the
   memory epoch and the frame's write stamp. Once the VM's epoch moves
   no entry can hit again, and each one is a live view that keeps a
   frame of the replaced memory alive, so the cache is dropped whole. *)
let page_cache_for inc ~vm dom =
  let epoch = Xenctl.memory_epoch dom in
  Mutex.lock inc.inc_mutex;
  let c =
    match Hashtbl.find_opt inc.inc_pages vm with
    | Some (e, c) when e = epoch -> c
    | Some _ | None ->
        let c = Vmi.create_cache () in
        Hashtbl.replace inc.inc_pages vm (epoch, c);
        c
  in
  Mutex.unlock inc.inc_mutex;
  c

(* A VM-independent fingerprint: each artifact of the fetched copy,
   owned and so stripped in place, hashed in its canonical form, so clean
   copies at different load bases collapse to the same digests. *)
let vm_fingerprint ~meter ~slots ~base artifacts : fingerprint =
  List.map
    (fun ((a : Artifact.t), _) ->
      let n = Bytes.length a.Artifact.data in
      if Artifact.is_section_data a then Meter.add_bytes_scanned meter n;
      Meter.add_bytes_hashed meter n;
      (Artifact.kind_name a.Artifact.kind, Md5.to_hex (Md5.digest_bytes a.data)))
    (Checker.side_artifacts (Checker.own ~slots ~base artifacts))
  |> List.sort compare

(* --- Merkle fingerprints (O(dirty) hot path) --------------------------- *)

(* The derived fingerprint compares exactly like [vm_fingerprint]: same
   kinds, one digest per kind, sorted. Root equality is canonical-content
   equality under the same MD5 collision assumption as a flat digest. *)
let seal_print ~base ~flat ~sections ~page_index =
  let fingerprint =
    flat
    @ List.map
        (fun (k, _, _, tree) -> (k, Md5.to_hex (Merkle.root tree)))
        sections
    |> List.sort compare
  in
  (* One digest over the fingerprint: equal across clean copies of the
     same build regardless of load base, so it doubles as the
     out-of-band comparison value an auditor pins. *)
  let lines = Buffer.create 1024 in
  List.iter
    (fun (k, d) ->
      Buffer.add_string lines k;
      Buffer.add_char lines ':';
      Buffer.add_string lines d;
      Buffer.add_char lines '\n')
    fingerprint;
  {
    mp_base = base;
    mp_flat = flat;
    mp_sections = sections;
    mp_page_index = page_index;
    mp_fingerprint = fingerprint;
    mp_root = Md5.to_hex (Md5.digest_string (Buffer.contents lines));
  }

let merkle_print_with_flat mp flat =
  seal_print ~base:mp.mp_base ~flat ~sections:mp.mp_sections
    ~page_index:mp.mp_page_index

(* The (clamped) margin-extended window of one leaf: the span of section
   bytes whose raw content determines the leaf's canonical content. *)
let leaf_window ~len (off, llen) =
  let lo = max 0 (off - Rva.reloc_margin) in
  let hi = min len (off + llen + Rva.reloc_margin) in
  (lo, hi - lo)

(* [artifacts] is a fetched copy, owned here: its fitted sections are
   stripped in place. *)
let build_merkle_print ~jm ~vmi ~slots ~base artifacts =
  let flat, secs =
    List.partition
      (fun ((a : Artifact.t), _) -> not (Artifact.is_section_data a))
      (Checker.side_artifacts (Checker.own ~slots ~base artifacts))
  in
  let mp_flat =
    List.map
      (fun ((a : Artifact.t), _) ->
        Meter.add_bytes_hashed jm (Bytes.length a.Artifact.data);
        (Artifact.kind_name a.Artifact.kind, Md5.to_hex (Md5.digest_bytes a.Artifact.data)))
      flat
  in
  let mp_sections =
    List.map
      (fun ((a : Artifact.t), table) ->
        Meter.add_bytes_scanned jm (Bytes.length a.Artifact.data);
        let tree = Checker.merkle_of_bytes ~meter:jm a.Artifact.data in
        (Artifact.kind_name a.Artifact.kind, a.Artifact.sec_rva, table, tree))
      secs
  in
  (* Index every frame backing a leaf's margin-extended window, through
     the session's page cache so the page-table pages the translations
     read join the footprint like any other read. *)
  let index = Hashtbl.create 64 in
  List.iter
    (fun (kind, sec_rva, _, tree) ->
      let len = Merkle.length tree in
      Array.iteri
        (fun leaf bounds ->
          let lo, wlen = leaf_window ~len bounds in
          List.iter
            (function
              | Some pfn ->
                  Hashtbl.replace index pfn
                    ((kind, leaf)
                    :: Option.value ~default:[] (Hashtbl.find_opt index pfn))
              | None -> ())
            (Vmi.pfns_of_va_range vmi (base + sec_rva + lo) wlen))
        (Merkle.leaf_bounds ~page:(Merkle.page_size tree) len))
    mp_sections;
  seal_print ~base ~flat:mp_flat ~sections:mp_sections
    ~page_index:(Hashtbl.fold (fun pfn ls acc -> (pfn, ls) :: acc) index [])

(* Refresh only the leaves backed by the dirty frames: each leaf is
   re-read with its reloc margin (so boundary-straddling slots are
   stripped exactly as a from-scratch pass would), canonicalized with the
   table its section was built with (raw if none), re-hashed, and
   spliced into the tree — k dirty pages cost k leaf hashes plus
   O(log n) interior nodes. The caller guarantees every dirty pfn is in
   the page index. *)
let refresh_merkle_print ~jm ~vmi mp ~dirty =
  let by_kind = Hashtbl.create 4 in
  List.iter
    (fun pfn ->
      List.iter
        (fun (kind, leaf) ->
          Hashtbl.replace by_kind kind
            (leaf :: Option.value ~default:[] (Hashtbl.find_opt by_kind kind)))
        (List.assoc pfn mp.mp_page_index))
    dirty;
  let rehashed = ref 0 in
  let mp_sections =
    List.map
      (fun (kind, sec_rva, table, tree) ->
        match Hashtbl.find_opt by_kind kind with
        | None -> (kind, sec_rva, table, tree)
        | Some leaves ->
            let len = Merkle.length tree in
            let bounds = Merkle.leaf_bounds ~page:(Merkle.page_size tree) len in
            let updates =
              List.map
                (fun leaf ->
                  let off, llen = bounds.(leaf) in
                  let lo, wlen = leaf_window ~len bounds.(leaf) in
                  (* Same read primitive as the full fetch, so an
                     unmapped (padded-as-zero) page refreshes to the
                     same bytes it fetched as. *)
                  let win =
                    Vmi.read_va_padded vmi (mp.mp_base + sec_rva + lo) wlen
                  in
                  Meter.add_bytes_scanned jm wlen;
                  Option.iter
                    (fun slots ->
                      Rva.canonical ~slots ~base:mp.mp_base ~off:lo win)
                    table;
                  Meter.add_bytes_hashed jm llen;
                  (leaf, Md5.digest_sub win (off - lo) llen))
                (List.sort_uniq compare leaves)
            in
            rehashed := !rehashed + List.length updates;
            let tree', interior = Merkle.set_leaves tree updates in
            Meter.add_merkle_nodes jm interior;
            (kind, sec_rva, table, tree'))
      mp.mp_sections
  in
  Tel.add "merkle.leaves_rehashed" !rehashed;
  seal_print ~base:mp.mp_base ~flat:mp.mp_flat ~sections:mp_sections
    ~page_index:mp.mp_page_index

(* The refreshed entry's key: untouched pages keep their recorded
   versions, pages the refresh session read carry the versions it saw,
   and dirty pages the session did not re-read (a VA since remapped
   elsewhere) drop out — the value no longer depends on them, and keeping
   their stale versions would make every future probe miss. *)
let merge_footprint old ~dirty session =
  let tbl = Hashtbl.create (Array.length old) in
  Array.iter (fun (pfn, v) -> Hashtbl.replace tbl pfn v) old;
  List.iter (Hashtbl.remove tbl) dirty;
  Array.iter (fun (pfn, v) -> Hashtbl.replace tbl pfn v) session;
  let arr = Array.make (Hashtbl.length tbl) (0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun pfn v ->
      arr.(!i) <- (pfn, v);
      incr i)
    tbl;
  Array.sort compare arr;
  arr

(* One VM's memoized Merkle print, via the probe -> O(dirty) refresh ->
   full-rebuild ladder. Shared by the incremental survey and the check
   fast path, so both pay -- and cache -- identically. *)
let merkle_probe_vm inc cloud ~slots ~vm ~module_name =
  Tel.with_span ~attrs:[ ("vm", Int vm) ] "vm_check"
  @@ fun sp ->
  let dom = Cloud.vm cloud vm in
  let jm = Meter.create () in
  Meter.set_phase jm Meter.Searcher;
  (* An aborted read must not populate the cache: its footprint covers
     only the pages read before the fault, which cannot key the value. *)
  let unreachable_or_reraise e =
    match unreachable_of_exn e with
    | Some reason ->
        Tel.add "check.unreachable_fetches" 1;
        Unreachable reason
    | None -> raise e
  in
  let full_build () =
    let origin = Digest_cache.origin dom in
    let vmi =
      Vmi.init ~meter:jm ~cache:(page_cache_for inc ~vm dom) dom
        (profile_for dom)
    in
    match fetch_with_vmi vmi ~vm ~module_name ~meter:jm with
    | exception e -> unreachable_or_reraise e
    | None ->
        Digest_cache.store inc.inc_merkle ~vm ~key:module_name ~origin
          ~footprint:(Vmi.footprint vmi) None;
        Absent
    | Some (info, artifacts) ->
        Meter.set_phase jm Meter.Checker;
        let mp =
          build_merkle_print ~jm ~vmi ~slots ~base:info.Searcher.mi_base
            artifacts
        in
        Digest_cache.store inc.inc_merkle ~vm ~key:module_name ~origin
          ~footprint:(Vmi.footprint vmi) (Some mp);
        Fetched mp
  in
  (* Whether the print came from an older epoch and now stands in this
     one: found current by its stamps, or refreshed where they moved.
     Only such spans carry the attribute, so a trace's size does not
     grow with the common case. *)
  let revalidated = ref false in
  let outcome =
    match
      Digest_cache.probe_delta ~meter:jm inc.inc_merkle dom ~vm
        ~key:module_name
    with
    | Digest_cache.Fresh { fresh_value; fresh_revalidated } -> (
        revalidated := fresh_revalidated;
        match fresh_value with Some mp -> Fetched mp | None -> Absent)
    | Digest_cache.Missing -> full_build ()
    | Digest_cache.Stale { stale_value = None; _ } -> full_build ()
    | Digest_cache.Stale
        { stale_value = Some mp; stale_origin; stale_footprint;
          stale_dirty; stale_revalidated }
      when List.for_all
             (fun pfn -> List.mem_assoc pfn mp.mp_page_index)
             stale_dirty -> (
        let vmi =
          Vmi.init ~meter:jm ~cache:(page_cache_for inc ~vm dom) dom
            (profile_for dom)
        in
        Meter.set_phase jm Meter.Checker;
        match
          refresh_merkle_print ~jm ~vmi mp ~dirty:stale_dirty
        with
        | exception e -> unreachable_or_reraise e
        | mp' ->
            Digest_cache.store inc.inc_merkle ~vm ~key:module_name
              ~origin:stale_origin
              ~footprint:
                (merge_footprint stale_footprint ~dirty:stale_dirty
                   (Vmi.footprint vmi))
              (Some mp');
            if stale_revalidated then begin
              Tel.add "digest_cache.revalidated" 1;
              revalidated := true
            end;
            Fetched mp')
    | Digest_cache.Stale _ ->
        Tel.add "merkle.full_rebuilds" 1;
        full_build ()
  in
  if !revalidated then Span.set_attr sp "revalidated" (Bool true);
  (vm, outcome, jm)

(* [merkle_probe_vm] for any VM of the pool. Slot tables are per patch
   level (each level is a different build of the module); each level's
   tables are looked up once per request from the golden memo. *)
let merkle_prober inc cloud ~module_name =
  let slots_by_level =
    List.map
      (fun level -> (level, print_slot_tables ~version:level module_name))
      (Cloud.distinct_patch_levels cloud)
  in
  fun vm ->
    let slots = List.assoc (Cloud.vm_patch_level cloud vm) slots_by_level in
    merkle_probe_vm inc cloud ~slots ~vm ~module_name

(* Before escalating on a root mismatch, descend the deviant pair's trees:
   the divergent pages are localized in O(k log n) node comparisons and
   logged, so the operator (and the [merkle.descents] /
   [merkle.deviant_pages] counters) learn *where* the copies disagree
   before the full byte-level survey re-derives it. *)
let descend_deviants ~fold_job module_name (a, mpa) (b, mpb) =
  let dm = Meter.create () in
  Meter.set_phase dm Meter.Checker;
  List.iter
    (fun (kind, _, _, ta) ->
      match
        List.find_opt (fun (k, _, _, _) -> String.equal k kind) mpb.mp_sections
      with
      | Some (_, _, _, tb)
        when Merkle.length ta = Merkle.length tb
             && Merkle.page_size ta = Merkle.page_size tb
             && not (Merkle.equal_root ta tb) ->
          let ranges = Checker.deviant_ranges ~meter:dm ta tb in
          Tel.add "merkle.deviant_pages" (List.length ranges);
          Log.warn (fun m ->
              m "%s %s deviates between Dom%d and Dom%d on %d page(s): %s"
                module_name kind (a + 1) (b + 1) (List.length ranges)
                (String.concat ", "
                   (List.map (fun (off, _) -> Printf.sprintf "+0x%x" off) ranges)))
      | _ -> ())
    mpa.mp_sections;
  fold_job dm

(* A VM's base-independent module identity, for callers (the federation
   coordinator) that need to compare copies across pools: fetched with the
   usual fault handling, stripped with the slot tables of the build
   matching the VM's patch level. *)
let reference_fingerprint ?meter cloud ~vm ~module_name =
  let jm = Meter.create () in
  let result =
    match fetch_artifacts cloud ~vm ~module_name ~meter:jm with
    | Absent -> Error (Printf.sprintf "module %s absent" module_name)
    | Unreachable reason -> Error reason
    | Fetched (info, artifacts) ->
        let slots =
          print_slot_tables ~version:(Cloud.vm_patch_level cloud vm)
            module_name
        in
        Meter.set_phase jm Checker;
        Ok
          (vm_fingerprint ~meter:jm ~slots ~base:info.Searcher.mi_base
             artifacts)
    | exception e -> (
        match unreachable_of_exn e with
        | Some reason -> Error reason
        | None -> raise e)
  in
  (match meter with Some dst -> Meter.merge dst jm | None -> bridge_meter jm);
  result

(* A pair_result synthesized from a memoized fingerprint: one verdict
   per artifact kind, digests already of canonical bytes (so av_adjusted
   is 0 — the print stripped the load base when it was built). *)
let pair_of_fingerprint ~matches fp =
  {
    Checker.verdicts =
      List.map
        (fun (kname, digest) ->
          {
            Checker.av_kind = Artifact.kind_of_name kname;
            av_match = matches;
            av_digest1 = digest;
            av_digest2 = (if matches then digest else "(absent)");
            av_adjusted = 0;
          })
        fp;
    all_match = matches;
    total_adjusted = 0;
  }

(* Merkle fast path for a check: compare the target's memoized
   reloc-canonical fingerprint against each comparison VM's, at the cost
   of staleness probes instead of full fetch+compare pipelines.
   Fingerprints can only prove {e agreement} (identically-tampered
   copies can fingerprint as mutually deviant, see [escalate_by_class]),
   so the fast path answers [Some _] only when every reachable copy
   agrees with the target — any mismatch returns [None] and the caller
   escalates to the full byte-level check, keeping verdict parity with
   the non-incremental path by construction. Unlike a survey, a check
   cannot escalate by print class: its report carries each comparison's
   per-artifact verdicts, whose [av_adjusted] counts depend on the load
   bases of the exact pair compared. *)
let check_module_merkle ~config ~others inc cloud ~target_vm ~module_name =
  Tel.with_span
    ~attrs:[ ("module", String module_name); ("target_vm", Int target_vm) ]
    "check_module_merkle"
  @@ fun _ ->
  let probe = merkle_prober inc cloud ~module_name in
  let _, target_outcome, target_meter = probe target_vm in
  match target_outcome with
  | Absent ->
      Some (target_error ~module_name ~target_vm target_meter ~unreachable:None)
  | Unreachable reason ->
      Some
        (target_error ~module_name ~target_vm target_meter
           ~unreachable:(Some reason))
  | Fetched mp_t ->
      let fp_t = mp_t.mp_fingerprint in
      let results = List.map probe others in
      if
        List.exists
          (fun (_, o, _) ->
            match o with
            | Fetched mp -> mp.mp_fingerprint <> fp_t
            | Absent | Unreachable _ -> false)
          results
      then begin
        (* The probes' work is still accounted — it really ran. *)
        Tel.add "check.merkle_escalations" 1;
        bridge_meter target_meter;
        List.iter (fun (_, _, jm) -> bridge_meter jm) results;
        None
      end
      else
        (* Every agreeing VM gets the same result value, and every VM
           without the module the same mismatch, so the report shares one
           verdict list per outcome (and encodes it once). *)
        let agree = Fetched (pair_of_fingerprint ~matches:true fp_t) in
        let absent = lazy (Fetched (pair_of_fingerprint ~matches:false fp_t)) in
        let as_comparison (vm, o, jm) =
          let o =
            match o with
            | Fetched _ -> agree
            | Absent -> Lazy.force absent
            | Unreachable reason -> Unreachable reason
          in
          (vm, o, jm)
        in
        Some
          (finish_check ~config ~module_name ~target_vm ~others ~target_meter
             ~fast_path:true
             (List.map as_comparison results))

let check_module ?(config = Config.default) cloud ~target_vm ~module_name =
  let others =
    match config.Config.others with
    | Some vs -> vs
    | None -> default_others cloud ~target_vm
  in
  let full () = check_module_full ~config ~others cloud ~target_vm ~module_name in
  if others = [] then Error "no comparison VMs available"
  else
    match config.Config.incremental with
    | None -> full ()
    | Some inc -> (
        match
          check_module_merkle ~config ~others inc cloud ~target_vm ~module_name
        with
        | Some r -> r
        | None -> full ())

exception Escalate_to_full

(* Own each fetched copy as a side, stripped with its patch level's slot
   tables. *)
let own_copies cloud ~module_name copies =
  List.map
    (fun (v, ((info : Searcher.module_info), arts)) ->
      let slots = slot_tables ~version:(Cloud.vm_patch_level cloud v) module_name in
      (v, Checker.own ~slots ~base:info.Searcher.mi_base arts))
    copies

(* Byte-compare the given pairs of sides (Algorithm 2, then MD5), in list
   order, sharing one memo as [check_module_full] does. A side may join
   many pairs; the result carries the count of artifacts the canonical
   shortcut decided. *)
let compare_pairs ~fold_job ~memo side_pairs =
  let compare_one ((v, s1), (u, s2)) =
    let jm = Meter.create () in
    Meter.set_phase jm Meter.Checker;
    let result, decided = Checker.compare_sides ~meter:jm ~memo s1 s2 in
    (((v, u), result.Checker.all_match), decided, jm)
  in
  let rs = List.map compare_one side_pairs in
  List.iter (fun (_, _, jm) -> fold_job jm) rs;
  ( List.map (fun (m, _, _) -> m) rs,
    List.fold_left (fun n (_, d, _) -> n + d) 0 rs )

(* Whether a copy of [a]'s print class loaded at [bx] and one of [b]'s
   loaded at [by] could match under [compare_pair], judged from the two
   fetched representatives alone ([a] and [b], each with its load base).
   Equal prints are equal canonical bytes, and print-equal copies share
   their headers, so the same table strips every copy of a class: outside
   its slots a copy holds its representative's bytes, and inside a slot
   the representative's value moved by the difference of their bases. So
   differing headers, or an artifact missing or of another length, rule
   every such pair out, and so does one byte of section data at which [a]
   and [b] differ outside both tables' slots and which
   {!Rva.may_reconcile} shows Algorithm 2 cannot rewrite for the two
   synthesized copies. [diverging kind] names the byte ranges of a
   section whose Merkle leaves differ between the two prints (every
   difference outside the slots lies in them), or [None] to scan it
   whole. A section whose representatives differ only inside slots rules
   nothing out; [true] decides nothing. *)
let may_match_across ~diverging side_a side_b =
  let arts_a = Checker.side_artifacts side_a
  and arts_b = Checker.side_artifacts side_b in
  let paired =
    List.filter_map
      (fun (((a : Artifact.t), _) as x) ->
        Option.map (fun y -> (x, y)) (Checker.find_kind arts_b a.kind))
      arts_a
  in
  let adjustable (((a : Artifact.t), _), ((b : Artifact.t), _)) =
    Artifact.is_section_data a
    && Bytes.length a.Artifact.data = Bytes.length b.Artifact.data
  in
  (* Headers are never canonicalized, and section data of unequal lengths
     differs in either form, so byte equality reads as on the raw
     copies. *)
  if
    List.length paired <> List.length arts_a
    || List.length paired <> List.length arts_b
    || List.exists
         (fun ((((a : Artifact.t), _), ((b : Artifact.t), _)) as pair) ->
           (not (adjustable pair)) && not (Bytes.equal a.data b.data))
         paired
  then fun ~bx:_ ~by:_ -> false
  else
    let slot_of table q = Option.bind table (fun t -> Rva.slot_covering t q) in
    let sections =
      List.filter_map
        (fun (((((a : Artifact.t), ta), ((b : Artifact.t), tb)) as pair)) ->
          if not (adjustable pair) then None
          else
            (* Outside its table's slots a side holds raw bytes. *)
            let da = a.data and db = b.data in
            let len = Bytes.length da in
            let ranges =
              match diverging (Artifact.kind_name a.kind) with
              | Some ranges -> ranges
              | None -> [ (0, len) ]
            in
            let outside = ref [] in
            List.iter
              (fun (lo, n) ->
                let i = ref lo and hi = min len (lo + n) in
                while !i < hi do
                  if
                    !i + 8 <= hi
                    && Bytes.get_int64_ne da !i = Bytes.get_int64_ne db !i
                  then i := !i + 8
                  else begin
                    for q = !i to min hi (!i + 8) - 1 do
                      if
                        Bytes.get da q <> Bytes.get db q
                        && slot_of ta q = None
                        && slot_of tb q = None
                      then outside := q :: !outside
                    done;
                    i := !i + 8
                  end
                done)
              ranges;
            if !outside = [] then None else Some (da, ta, db, tb, len, !outside))
        paired
    in
    fun ~bx ~by ->
      List.for_all
        (fun (da, ta, db, tb, len, outside) ->
          (* Inside a slot a side holds the canonical value, which a copy
             loaded at [base] holds moved by [base]. *)
          let byte d table ~base q =
            match slot_of table q with
            | None -> Char.code (Bytes.get d q)
            | Some r ->
                (((Mc_util.Le.get_u32_int d r + base) land 0xFFFFFFFF)
                 lsr (8 * (q - r)))
                land 0xFF
          in
          List.for_all
            (Rva.may_reconcile ~base1:bx ~base2:by ~len
               (byte da ta ~base:bx) (byte db tb ~base:by))
            outside)
        sections

(* Byte-level escalation by print class. The classes' lowest VMs are
   fetched afresh and compared pairwise. A pair inside a class matches
   (print-equal copies always match under [compare_pair], test_merkle's
   gate property), and a pair across classes first takes its
   representatives' result. Prints cannot stand in for bytes across
   classes: identically-tampered copies whose code shifted can print
   apart yet match byte for byte, which only [compare_pair] sees.

   The representatives' matches join classes into groups, and each group
   is connected in the full survey too. Two groups, though, can be joined
   there by a pair of members alone: Algorithm 2 can take a real
   difference for an address under one pair of load bases only
   (test_merkle "coincidental match"). So every pair of same-cohort VMs
   in different groups that [may_match_across] cannot rule out is
   fetched and compared for real, which yields the full survey's
   agreement classes, deviants and verdict exactly. A one-VM infection
   of n VMs thus costs 2 fetches and 1 pair unless its bytes happen to
   sit the load-base difference of some pair apart. Pairs across cohorts
   are different builds and keep the representatives' mismatch, as the
   probe pass assumes. The only pairs that can report otherwise than the
   full survey are those across two classes of one group, which the
   representatives' match already joins. A VM that does not come back
   [Fetched] raises [Escalate_to_full]. *)
let escalate_by_class ~fold_job cloud ~module_name prints pairwise =
  let rep_of =
    List.map
      (fun (vm, mp) ->
        ( vm,
          fst
            (List.find
               (fun (_, mp') -> mp'.mp_fingerprint = mp.mp_fingerprint)
               prints) ))
      prints
  in
  let reps =
    List.filter_map (fun (vm, r) -> if vm = r then Some vm else None) rep_of
  in
  Tel.add "survey.escalation_reps" (List.length reps);
  Tel.with_span
    ~attrs:
      [
        ("classes", Int (List.length reps));
        ("reps", String (String.concat "," (List.map string_of_int reps)));
      ]
    "escalate"
  @@ fun sp ->
  let fetch vms =
    let fetched =
      List.map
        (fun vm ->
          Tel.with_span ~attrs:[ ("vm", Int vm) ] "vm_check"
          @@ fun _ ->
          let jm = Meter.create () in
          (vm, fetch_artifacts cloud ~vm ~module_name ~meter:jm, jm))
        vms
    in
    List.iter (fun (_, _, jm) -> fold_job jm) fetched;
    List.map
      (function
        | vm, Fetched copy, _ -> (vm, copy)
        | _, (Absent | Unreachable _), _ -> raise Escalate_to_full)
      fetched
    |> own_copies cloud ~module_name
  in
  let memo = Checker.create_memo () in
  let rep_sides = fetch reps in
  let rep_matches, rep_decided =
    compare_pairs ~fold_job ~memo (pairs rep_sides)
  in
  let group = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace group r r) reps;
  let rec root r =
    let up = Hashtbl.find group r in
    if up = r then r else root up
  in
  List.iter
    (fun ((a, b), ok) -> if ok then Hashtbl.replace group (root a) (root b))
    rep_matches;
  let rep v = List.assoc v rep_of in
  let cohort = Cloud.vm_patch_level cloud in
  let filters = Hashtbl.create 4 in
  let may_match v u =
    (* One filter per two classes, keyed in VM order. A member on
       another patch level than its representative was stripped with
       another reloc table, so it is not rebuilt: it is compared. *)
    let v, u = if rep v < rep u then (v, u) else (u, v) in
    let rv = rep v and ru = rep u in
    if cohort rv <> cohort v || cohort ru <> cohort u then true
    else
      let filter =
        match Hashtbl.find_opt filters (rv, ru) with
        | Some f -> f
        | None ->
            let diverging kind =
              let tree r =
                List.find_map
                  (fun (k, _, _, t) ->
                    if String.equal k kind then Some t else None)
                  (List.assoc r prints).mp_sections
              in
              match (tree rv, tree ru) with
              | Some ta, Some tb
                when Merkle.length ta = Merkle.length tb
                     && Merkle.page_size ta = Merkle.page_size tb ->
                  let bounds =
                    Merkle.leaf_bounds ~page:(Merkle.page_size ta)
                      (Merkle.length ta)
                  in
                  Some
                    (List.map
                       (fun i -> bounds.(i))
                       (fst (Merkle.diverging_leaves ta tb)))
              | _ -> None
            in
            let f =
              may_match_across ~diverging (List.assoc rv rep_sides)
                (List.assoc ru rep_sides)
            in
            Hashtbl.replace filters (rv, ru) f;
            f
      in
      filter ~bx:(List.assoc v prints).mp_base
        ~by:(List.assoc u prints).mp_base
  in
  let doubtful =
    List.filter_map
      (fun ((v, u), _) ->
        if
          root (rep v) <> root (rep u)
          && cohort v = cohort u
          && (not (rep v = v && rep u = u))
          && may_match v u
        then Some (v, u)
        else None)
      pairwise
  in
  Tel.add "survey.escalation_member_pairs" (List.length doubtful);
  Span.set_attr sp "member_pairs" (Int (List.length doubtful));
  let sides =
    rep_sides
    @ fetch
        (List.sort_uniq compare
           (List.concat_map (fun (v, u) -> [ v; u ]) doubtful)
        |> List.filter (fun v -> not (List.mem_assoc v rep_sides)))
  in
  let member_matches, member_decided =
    compare_pairs ~fold_job ~memo
      (List.map
         (fun (v, u) -> ((v, List.assoc v sides), (u, List.assoc u sides)))
         doubtful)
  in
  Span.set_attr sp "canonical" (Int (rep_decided + member_decided));
  List.map
    (fun ((v, u), _) ->
      match List.assoc_opt (v, u) member_matches with
      | Some ok -> ((v, u), ok)
      | None ->
          let rv = rep v and ru = rep u in
          ((v, u), rv = ru || List.assoc (min rv ru, max rv ru) rep_matches))
    pairwise

let rec survey ?(config = Config.default) ?meter cloud ~module_name =
  try survey_once ~config ?meter cloud ~module_name
  with Escalate_to_full ->
    (* Raised by a class escalation with a copy that fails its fresh
       fetch, which cannot be compared. The full survey then re-fetches
       every VM. *)
    survey
      ~config:{ config with Config.incremental = None }
      ?meter cloud ~module_name

and survey_once ~config ?meter cloud ~module_name =
  let { Config.incremental; quorum; _ } = config in
  Tel.with_span ~attrs:[ ("module", String module_name) ] "survey"
  @@ fun root ->
  let vms = List.init (Cloud.vm_count cloud) Fun.id in
  (* Every job meters into its own fresh meter, whose counts fold back
     when the job is done: into the caller's meter when one was given,
     else straight into telemetry. *)
  let fold_job jm =
    match meter with Some dst -> Meter.merge dst jm | None -> bridge_meter jm
  in
  let fan_out job =
    let jobs = List.map job vms in
    List.iter (fun (_, _, jm) -> fold_job jm) jobs;
    partition_outcomes jobs
  in
  let vms_present, missing_on, unreachable_on, pairwise =
    match incremental with
    | Some inc ->
        (* Incremental path: per-VM Merkle prints memoized on the pages
           each computation read. An untouched VM prices as one staleness
           probe instead of a map+parse+hash pipeline, and a VM whose
           module pages were written refreshes at O(dirty): the delta
           probe names the dirty frames, the page index maps them to
           leaves, and only those leaves (plus the O(log n) interior nodes
           above them) are re-read and re-hashed. A dirty frame outside
           the section page index (an LDR page, a page-table page, a
           header page) means the walk itself may have changed, and the
           entry rebuilds from scratch. *)
        let prints, missing_on, unreachable_on =
          fan_out (merkle_prober inc cloud ~module_name)
        in
        let pairwise =
          match_pairs
            (List.map (fun (vm, mp) -> (vm, mp.mp_fingerprint)) prints)
        in
        (* Copies from different patch levels are different builds and
           always mismatch — that is a version split, not tampering, and
           the full survey would reach the same (non-)conclusion about it.
           Only a disagreement inside one cohort demands escalation; the
           trees localize its deviant pages first, then one copy per
           print class, and the copies whose group the classes leave in
           doubt, are compared byte by byte. *)
        let pairwise =
          match
            List.find_opt
              (fun ((a, b), ok) ->
                (not ok)
                && Cloud.vm_patch_level cloud a = Cloud.vm_patch_level cloud b)
              pairwise
          with
          | None -> pairwise
          | Some ((a, b), _) -> (
              descend_deviants ~fold_job module_name
                (a, List.assoc a prints)
                (b, List.assoc b prints);
              Tel.add "survey.incremental_escalations" 1;
              escalate_by_class ~fold_job cloud ~module_name prints
                pairwise)
        in
        (List.map fst prints, missing_on, unreachable_on, pairwise)
    | None ->
        let present, missing_on, unreachable_on =
          fan_out (fun vm ->
              Tel.with_span ~attrs:[ ("vm", Int vm) ] "vm_check"
              @@ fun _ ->
              let jm = Meter.create () in
              (vm, fetch_artifacts cloud ~vm ~module_name ~meter:jm, jm))
        in
        let pairwise =
          Tel.with_span ~attrs:[ ("vms_present", Int (List.length present)) ]
            "checker"
          @@ fun sp ->
          let matches, decided =
            compare_pairs ~fold_job ~memo:(Checker.create_memo ())
              (pairs (own_copies cloud ~module_name present))
          in
          Span.set_attr sp "canonical" (Int decided);
          matches
        in
        (List.map fst present, missing_on, unreachable_on, pairwise)
  in
  (* Partition the present VMs into agreement classes (the match relation
     unions clean clones into one class). The largest class, when it is a
     strict majority, is the trusted pool; everyone outside deviates. With
     no majority class the pool is inconsistent beyond attribution and
     every VM is flagged for deeper analysis (paper §III-B discussion). *)
  let agreement_classes =
    match vms_present with
    | [] -> []
    | _ ->
        let classes = ref (List.map (fun v -> [ v ]) vms_present) in
        List.iter
          (fun ((a, b), ok) ->
            if ok then begin
              let ca = List.find (List.mem a) !classes in
              let cb = List.find (List.mem b) !classes in
              if ca != cb then
                classes :=
                  (ca @ cb)
                  :: List.filter (fun c -> c != ca && c != cb) !classes
            end)
          pairwise;
        List.map (List.sort compare) !classes
        |> List.sort (fun a b -> compare (List.length b) (List.length a))
  in
  (* Deviance is judged inside each version cohort: a copy is voted on by
     peers running the same patch level, so a legitimate version split
     never drowns the majority and an infection is judged against its own
     cohort. A homogeneous pool has one cohort and this reduces exactly to
     the original whole-pool rule. A VM alone in its cohort has no peers
     and is never flagged. *)
  let cohort_of = Cloud.vm_patch_level cloud in
  let deviant_vms =
    let levels = List.sort_uniq compare (List.map cohort_of vms_present) in
    List.concat_map
      (fun level ->
        let members = List.filter (fun v -> cohort_of v = level) vms_present in
        Report.cohort_deviants ~members
          (List.filter_map
             (fun c ->
               match List.filter (fun v -> List.mem v members) c with
               | [] -> None
               | m -> Some m)
             agreement_classes))
      levels
    |> List.sort compare
  in
  let s_surveyed = List.length vms in
  let s_responded = s_surveyed - List.length unreachable_on in
  let s_voted = List.length vms_present in
  let s_verdict =
    if not (Report.quorum_met ~quorum ~surveyed:s_surveyed ~responded:s_responded)
    then
      Report.Degraded
        (Printf.sprintf "%d/%d VM(s) responded (quorum %g)" s_responded
           s_surveyed quorum)
    else if deviant_vms <> [] then Report.Infected
    else Report.Intact
  in
  (match meter with Some m -> bridge_meter m | None -> ());
  if Tel.enabled () then begin
    Tel.add "survey.runs" 1;
    Tel.add "survey.pair_comparisons" (List.length pairwise);
    Tel.add "survey.deviant_vms" (List.length deviant_vms);
    Tel.add "survey.unreachable_vms" (List.length unreachable_on);
    (match s_verdict with
    | Report.Degraded _ -> Tel.add "survey.degraded_verdicts" 1
    | _ -> ());
    Span.set_attr root "deviants" (Int (List.length deviant_vms))
  end;
  Report.
    {
      survey_module = module_name;
      vm_indices = vms;
      missing_on;
      deviant_vms;
      agreement_classes;
      pairwise_matches = pairwise;
      unreachable_on;
      s_surveyed;
      s_responded;
      s_voted;
      s_verdict;
    }

type list_discrepancy = {
  ld_module : string;
  present_on : int list;
  missing_on : int list;
}

(* The cache key for a VM's module-list walk; a guest module name can
   never collide with it (names come from 8.3-ish UNICODE_STRINGs). *)
let list_key = "__module_list__"

type list_comparison = {
  lc_discrepancies : list_discrepancy list;
  lc_unreachable : (int * string) list;
}

let list_walk ?(config = Config.default) ?meter cloud ~vm =
  let dom = Cloud.vm cloud vm in
  let walk ?cache () =
    let vmi = Vmi.init ?meter ?cache dom (profile_for dom) in
    let names =
      List.map
        (fun (i : Searcher.module_info) ->
          String.lowercase_ascii i.Searcher.mi_name)
        (Searcher.list_modules ?meter vmi)
    in
    (vmi, names)
  in
  let names () =
    match config.Config.incremental with
    | None -> snd (walk ())
    | Some inc -> (
        match Digest_cache.probe ?meter inc.inc_lists dom ~vm ~key:list_key with
        | Some names -> names
        | None ->
            let origin = Digest_cache.origin dom in
            let vmi, names = walk ~cache:(page_cache_for inc ~vm dom) () in
            Digest_cache.store inc.inc_lists ~vm ~key:list_key ~origin
              ~footprint:(Vmi.footprint vmi) names;
            names)
  in
  match names () with
  | names -> Ok names
  | exception e -> (
      match unreachable_of_exn e with
      | Some reason ->
          Tel.add "check.unreachable_fetches" 1;
          Error reason
      | None -> raise e)

let survey_module_lists ?config ?meter cloud =
  Tel.with_span "list_compare" @@ fun _ ->
  let vms = List.init (Cloud.vm_count cloud) Fun.id in
  (match meter with Some m -> Meter.set_phase m Meter.Searcher | None -> ());
  (* A VM whose walk aborts on a fault drops out of the comparison
     entirely: it neither vouches for a module nor counts as missing one.
     Treating an unreadable list as "everything missing" would turn every
     fault burst into a spurious DKOM alarm. *)
  let listings, lc_unreachable =
    List.partition_map
      (fun vm ->
        match list_walk ?config ?meter cloud ~vm with
        | Ok names -> Left (vm, names)
        | Error reason -> Right (vm, reason))
      vms
  in
  let reachable = List.map fst listings in
  let all_names =
    List.sort_uniq compare (List.concat_map snd listings)
  in
  let lc_discrepancies =
    List.filter_map
      (fun name ->
        let present_on =
          List.filter_map
            (fun (vm, names) -> if List.mem name names then Some vm else None)
            listings
        in
        let missing_on =
          List.filter (fun v -> not (List.mem v present_on)) reachable
        in
        if missing_on = [] then None
        else Some { ld_module = name; present_on; missing_on })
      all_names
  in
  { lc_discrepancies; lc_unreachable }

type watch_source = Watch_module of string | Watch_lists

let watch_pfns inc dom ~vm ~watch =
  let epoch = Xenctl.memory_epoch dom in
  let fp cache key =
    Option.value ~default:[]
      (Digest_cache.footprint_pfns cache ~vm ~key ~epoch)
  in
  List.map (fun name -> (Watch_module name, fp inc.inc_merkle name)) watch
  @ [ (Watch_lists, fp inc.inc_lists list_key) ]

(* Cross-check the two Dom0 read channels over the cached watch
   footprints: the page-granular foreign mapping (what every checker
   read uses — and what a SEVurity-style in-guest adversary can shim)
   against the hypervisor's own byte-granular physical read path (which
   it cannot). Any byte difference means something is lying to the
   checker about a page it vouches for. A page whose map faults is
   skipped rather than flagged: a dropped mapping is a fault-plan event,
   not evidence of tampering. *)
let audit_anchors ?meter inc cloud ~watch =
  let page = Mc_memsim.Phys.frame_size in
  let mismatches = ref [] in
  for vm = 0 to Cloud.vm_count cloud - 1 do
    let dom = Cloud.vm cloud vm in
    List.iter
      (fun (src, pfns) ->
        match src with
        | Watch_lists -> ()
        | Watch_module m ->
            let tampered =
              List.exists
                (fun pfn ->
                  match Xenctl.map_foreign_page ?meter dom pfn with
                  | mapped ->
                      let raw = Bytes.create page in
                      Xenctl.read_foreign_pa ?meter dom (pfn * page) raw 0
                        page;
                      not (Bytes.equal mapped raw)
                  | exception Xenctl.Map_fault _ -> false)
                pfns
            in
            if tampered then mismatches := (m, vm) :: !mismatches)
      (watch_pfns inc dom ~vm ~watch)
  done;
  List.sort_uniq compare !mismatches

let merkle_root inc cloud ~vm ~module_name =
  let dom = Cloud.vm cloud vm in
  let epoch = Xenctl.memory_epoch dom in
  match Digest_cache.peek inc.inc_merkle ~vm ~key:module_name ~epoch with
  | Some (Some mp) -> Some mp.mp_root
  | Some None | None -> None
