(* Unit tests for Mc_util: little-endian codecs, byte buffers, RNG, stats,
   hexdump and table rendering. *)

module Le = Mc_util.Le
module Bytebuf = Mc_util.Bytebuf
module Rng = Mc_util.Rng
module Stats = Mc_util.Stats
module Hexdump = Mc_util.Hexdump
module Table = Mc_util.Table

let check = Alcotest.check

(* --- Le ---------------------------------------------------------------- *)

let test_le_u8 () =
  let b = Bytes.make 4 '\000' in
  Le.set_u8 b 1 0x7F;
  check Alcotest.int "u8 roundtrip" 0x7F (Le.get_u8 b 1);
  Le.set_u8 b 1 0x1FF;
  check Alcotest.int "u8 truncates" 0xFF (Le.get_u8 b 1)

let test_le_u16 () =
  let b = Bytes.make 4 '\000' in
  Le.set_u16 b 0 0xBEEF;
  check Alcotest.int "u16 roundtrip" 0xBEEF (Le.get_u16 b 0);
  check Alcotest.int "u16 low byte first" 0xEF (Le.get_u8 b 0);
  check Alcotest.int "u16 high byte second" 0xBE (Le.get_u8 b 1)

let test_le_u32 () =
  let b = Bytes.make 8 '\000' in
  Le.set_u32 b 2 0xDEADBEEFl;
  check Alcotest.int32 "u32 roundtrip" 0xDEADBEEFl (Le.get_u32 b 2);
  check Alcotest.int "u32 as int" 0xDEADBEEF (Le.get_u32_int b 2);
  check Alcotest.int "byte order" 0xEF (Le.get_u8 b 2)

let test_le_int_conversions () =
  check Alcotest.int "int_of_u32 is unsigned" 0xFFFFFFFF (Le.int_of_u32 (-1l));
  check Alcotest.int32 "u32_of_int truncates" 0x00000001l
    (Le.u32_of_int 0x100000001);
  check Alcotest.string "string_of_u32" "0xdeadbeef"
    (Le.string_of_u32 0xDEADBEEFl)

let test_le_set_u32_int_negative_wrap () =
  let b = Bytes.make 4 '\000' in
  Le.set_u32_int b 0 (-1);
  check Alcotest.int "negative wraps to all-ones" 0xFFFFFFFF (Le.get_u32_int b 0)

(* --- Bytebuf ------------------------------------------------------------ *)

let test_bytebuf_append () =
  let buf = Bytebuf.create ~capacity:2 () in
  Bytebuf.add_u8 buf 0x41;
  Bytebuf.add_u16 buf 0x4342;
  Bytebuf.add_u32 buf 0x47464544l;
  Bytebuf.add_string buf "HI";
  check Alcotest.int "length" 9 (Bytebuf.length buf);
  check Alcotest.string "contents" "ABCDEFGHI"
    (Bytes.to_string (Bytebuf.contents buf))

let test_bytebuf_fill_align () =
  let buf = Bytebuf.create () in
  Bytebuf.add_string buf "abc";
  Bytebuf.align_to buf 8 0x20;
  check Alcotest.int "aligned to 8" 8 (Bytebuf.length buf);
  Bytebuf.align_to buf 8 0x20;
  check Alcotest.int "already aligned is no-op" 8 (Bytebuf.length buf);
  Bytebuf.pad_to buf 10 0x2E;
  check Alcotest.string "pad bytes" "abc     .."
    (Bytes.to_string (Bytebuf.contents buf))

let test_bytebuf_patch () =
  let buf = Bytebuf.create () in
  Bytebuf.add_u32 buf 0l;
  Bytebuf.add_u16 buf 0;
  Bytebuf.patch_u32 buf 0 0x11223344l;
  Bytebuf.patch_u16 buf 4 0xAABB;
  let c = Bytebuf.contents buf in
  check Alcotest.int32 "patched u32" 0x11223344l (Le.get_u32 c 0);
  check Alcotest.int "patched u16" 0xAABB (Le.get_u16 c 4);
  Alcotest.check_raises "patch out of range"
    (Invalid_argument "Bytebuf.patch: offset 5+2 out of range (len 6)")
    (fun () -> Bytebuf.patch_u16 buf 5 0)

let test_bytebuf_sub () =
  let buf = Bytebuf.create () in
  Bytebuf.add_string buf "hello world";
  check Alcotest.string "sub" "world" (Bytes.to_string (Bytebuf.sub buf 6 5));
  Alcotest.check_raises "sub out of range"
    (Invalid_argument "Bytebuf.sub: out of range") (fun () ->
      ignore (Bytebuf.sub buf 8 5))

let test_bytebuf_growth () =
  let buf = Bytebuf.create ~capacity:1 () in
  for i = 0 to 9999 do
    Bytebuf.add_u8 buf (i land 0xFF)
  done;
  check Alcotest.int "grown length" 10000 (Bytebuf.length buf);
  check Alcotest.int "spot check" 0x0F (Bytebuf.get_u8 buf 0x30F)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_u64 a) (Rng.next_u64 b)
  done

let test_rng_of_string () =
  let a = Rng.of_string "hal.dll" and b = Rng.of_string "hal.dll" in
  check Alcotest.int64 "name-derived streams agree" (Rng.next_u64 a)
    (Rng.next_u64 b);
  let c = Rng.of_string "http.sys" in
  Alcotest.(check bool)
    "different names diverge" true
    (Rng.next_u64 (Rng.of_string "hal.dll") <> Rng.next_u64 c)

let test_rng_bounds () =
  let rng = Rng.create 1L in
  for _ = 1 to 10000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let v1 = Rng.next_u64 child in
  (* Replay: same construction gives the same child stream. *)
  let parent' = Rng.create 5L in
  let child' = Rng.split parent' in
  check Alcotest.int64 "split is deterministic" v1 (Rng.next_u64 child')

let test_rng_pick_bytes () =
  let rng = Rng.create 9L in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  check Alcotest.int "bytes length" 33 (Bytes.length (Rng.bytes rng 33))

let test_rng_distribution () =
  (* Coarse uniformity check: each bucket of 8 should get 10-40% of 1000. *)
  let rng = Rng.create 123L in
  let counts = Array.make 8 0 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d reasonable (%d)" i c)
        true
        (c > 60 && c < 250))
    counts

(* --- Stats -------------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_stats_mean_stddev () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "mean empty" 0.0 (Stats.mean []);
  check feq "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check feq "stddev singleton" 0.0 (Stats.stddev [ 5.0 ])

let test_stats_min_max_percentile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check feq "min" 1.0 (Stats.minimum xs);
  check feq "max" 5.0 (Stats.maximum xs);
  check feq "median" 3.0 (Stats.percentile 50.0 xs);
  check feq "p100" 5.0 (Stats.percentile 100.0 xs);
  check feq "p1" 1.0 (Stats.percentile 1.0 xs);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50.0 []))

let test_stats_linear_fit () =
  let pts = [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  let slope, intercept = Stats.linear_fit pts in
  check feq "slope" 2.0 slope;
  check feq "intercept" 1.0 intercept;
  check feq "perfect r^2" 1.0 (Stats.r_squared pts)

let test_stats_r_squared_noisy () =
  let pts = [ (1.0, 1.0); (2.0, 4.0); (3.0, 2.0); (4.0, 8.0) ] in
  let r2 = Stats.r_squared pts in
  Alcotest.(check bool) "r^2 in [0,1]" true (r2 >= 0.0 && r2 <= 1.0);
  Alcotest.(check bool) "imperfect" true (r2 < 0.999)

(* --- Hexdump ------------------------------------------------------------ *)

let test_hexdump_inline () =
  check Alcotest.string "bytes_inline" "49 8B EC"
    (Hexdump.bytes_inline (Bytes.of_string "\x49\x8b\xec"));
  check Alcotest.string "custom sep" "49-8B"
    (Hexdump.bytes_inline ~sep:"-" (Bytes.of_string "\x49\x8b"))

let test_hexdump_dump () =
  let out = Hexdump.dump ~base:0x1000 (Bytes.of_string "ABCDEFGH") in
  Alcotest.(check bool) "has base address" true
    (String.length out > 0
    && String.sub out 0 8 = "00001000");
  Alcotest.(check bool) "has ascii pane" true
    (String.length out > 0 && String.index_opt out '|' <> None)

let test_hexdump_diff () =
  let a = Bytes.of_string (String.make 64 'x') in
  let b = Bytes.copy a in
  Bytes.set b 40 'Y';
  let out = Hexdump.diff ~context:0 a b in
  Alcotest.(check bool) "marks the differing column" true
    (String.index_opt out '^' <> None);
  let equal_out = Hexdump.diff a (Bytes.copy a) in
  Alcotest.(check bool) "all-equal elides rows" true
    (String.index_opt equal_out '^' = None)

(* --- Json --------------------------------------------------------------- *)

module Json = Mc_util.Json

let test_json_scalars () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "true" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "-42" (Json.to_string (Json.Int (-42)));
  check Alcotest.string "float" "1.5" (Json.to_string (Json.Float 1.5));
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  check Alcotest.string "quotes and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.String "a\"b\\c"));
  check Alcotest.string "newline" "\"a\\nb\""
    (Json.to_string (Json.String "a\nb"));
  check Alcotest.string "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\x01"))

let test_json_escape_classes () =
  (* Every escape class, and the bytes that must pass through untouched,
     inside both an object key and a string value. *)
  List.iter
    (fun (raw, escaped) ->
      check Alcotest.string
        (Printf.sprintf "escape %S" raw)
        (Printf.sprintf "{\"k%s\":\"v%s\"}" escaped escaped)
        (Json.to_string (Json.Obj [ ("k" ^ raw, Json.String ("v" ^ raw)) ])))
    [
      ("\"", "\\\"");
      ("\\", "\\\\");
      ("\n", "\\n");
      ("\r", "\\r");
      ("\t", "\\t");
      ("\x00", "\\u0000");
      ("\b", "\\u0008");
      ("\x0c", "\\u000c");
      ("\x1f", "\\u001f");
      ("/", "/");
      ("\x7f", "\x7f");
      ("\x80\xff", "\x80\xff");
      ("plain", "plain");
    ]

let test_json_compound () =
  let v =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.List []);
        ("o", Json.Obj []) ]
  in
  check Alcotest.string "compact" "{\"xs\":[1,2],\"e\":[],\"o\":{}}"
    (Json.to_string v);
  let pretty = Json.to_string_pretty v in
  Alcotest.(check bool) "pretty has newlines" true
    (String.contains pretty '\n')

(* --- Table -------------------------------------------------------------- *)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  check Alcotest.int "line count" 6 (List.length lines);
  List.iter
    (fun line ->
      check Alcotest.int "aligned widths" (String.length (List.hd lines))
        (String.length line))
    lines

let test_table_ragged_rows () =
  let out = Table.render ~header:[ "x" ] [ [ "1"; "extra" ]; [] ] in
  Alcotest.(check bool) "handles ragged rows" true (String.length out > 0)

let test_chart () =
  let out =
    Table.chart ~title:"t" ~x_label:"x" ~y_label:"y"
      [ ("s1", [ (0.0, 0.0); (1.0, 1.0) ]); ("s2", [ (0.5, 0.7) ]) ]
  in
  Alcotest.(check bool) "mentions series glyphs" true
    (String.index_opt out '*' <> None && String.index_opt out 'o' <> None);
  let empty = Table.chart ~title:"e" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "empty chart" true
    (String.length empty > 0)

let () =
  Alcotest.run "util"
    [
      ( "le",
        [
          Alcotest.test_case "u8" `Quick test_le_u8;
          Alcotest.test_case "u16" `Quick test_le_u16;
          Alcotest.test_case "u32" `Quick test_le_u32;
          Alcotest.test_case "conversions" `Quick test_le_int_conversions;
          Alcotest.test_case "negative wrap" `Quick
            test_le_set_u32_int_negative_wrap;
        ] );
      ( "bytebuf",
        [
          Alcotest.test_case "append" `Quick test_bytebuf_append;
          Alcotest.test_case "fill/align" `Quick test_bytebuf_fill_align;
          Alcotest.test_case "patch" `Quick test_bytebuf_patch;
          Alcotest.test_case "sub" `Quick test_bytebuf_sub;
          Alcotest.test_case "growth" `Quick test_bytebuf_growth;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "of_string" `Quick test_rng_of_string;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float" `Quick test_rng_float;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "pick/bytes" `Quick test_rng_pick_bytes;
          Alcotest.test_case "distribution" `Quick test_rng_distribution;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "min/max/percentile" `Quick
            test_stats_min_max_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "r^2 noisy" `Quick test_stats_r_squared_noisy;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "inline" `Quick test_hexdump_inline;
          Alcotest.test_case "dump" `Quick test_hexdump_dump;
          Alcotest.test_case "diff" `Quick test_hexdump_diff;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "escape classes" `Quick test_json_escape_classes;
          Alcotest.test_case "compound" `Quick test_json_compound;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged" `Quick test_table_ragged_rows;
          Alcotest.test_case "chart" `Quick test_chart;
        ] );
    ]
