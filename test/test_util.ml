(* Tests for Wafl_util: rng, bitops, histo, table, series, queueing. *)

open Wafl_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "different seeds diverge" true !differs

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in r ~lo:(-5) ~hi:5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_covers () =
  let r = Rng.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 8) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_float_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    check_bool "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_copy_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy starts from same state" va vb

let test_rng_split_diverges () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  check_bool "split stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:21 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let m = !sum /. float_of_int n in
  check_bool "mean close to 4" true (m > 3.8 && m < 4.2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* The generator's stream, pinned: the first eight [bits64] and
   [int _ 1000] draws for three seeds and for a [split] child, as the
   four-[int64]-field generator produced them.  A change of state layout
   must not change a single draw. *)
let test_rng_stream_pinned () =
  let bits r = List.init 8 (fun _ -> Rng.bits64 r) in
  let ints r = List.init 8 (fun _ -> Rng.int r 1000) in
  let check_bits label seed expected =
    Alcotest.(check (list int64)) label expected (bits (Rng.create ~seed))
  in
  let check_ints label seed expected =
    Alcotest.(check (list int)) label expected (ints (Rng.create ~seed))
  in
  check_bits "bits64, seed 0" 0
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
      0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ];
  check_ints "int, seed 0" 0 [ 612; 274; 768; 628; 929; 786; 440; 295 ];
  check_bits "bits64, seed 1" 1
    [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L; 0x642e1c7bc266a3a7L;
      0xb27a48e29a233673L; 0x24c123126ffda722L; 0x123004ef8df510e6L; 0x61954dcc47b1e89dL ];
  check_ints "int, seed 1" 1 [ 749; 714; 92; 479; 563; 162; 286; 525 ];
  check_bits "bits64, seed 42" 42
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
      0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L ];
  check_ints "int, seed 42" 42 [ 742; 198; 201; 481; 764; 872; 946; 695 ];
  let parent = Rng.create ~seed:42 in
  Alcotest.(check (list int64))
    "bits64, split child of seed 42"
    [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L; 0x91d83a17b20e6585L;
      0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L; 0x3162280b9dcfa5efL; 0xb4f9f0541228b854L ]
    (bits (Rng.split parent));
  Alcotest.(check int64) "split advances the parent by one draw" 0x6104d9866d113a7eL
    (Rng.bits64 parent);
  Alcotest.(check (list int))
    "int, split child of seed 42"
    [ 723; 706; 925; 365; 149; 793; 791; 636 ]
    (ints (Rng.split (Rng.create ~seed:42)))

(* A draw allocates nothing: the state is raw bytes, not boxed int64
   fields, and the rejection loop is a top-level function. *)
let test_rng_int_allocates_nothing () =
  let r = Rng.create ~seed:0 in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Rng.int r 1000))
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Rng.int r 1000))
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "10,000 draws allocate 0 minor words (%.0f)" words) true (words = 0.0)

(* --- Bitops --- *)

let test_popcount64 () =
  check_int "zero" 0 (Bitops.popcount64 0L);
  check_int "all ones" 64 (Bitops.popcount64 (-1L));
  check_int "one bit" 1 (Bitops.popcount64 0x8000000000000000L);
  check_int "pattern" 32 (Bitops.popcount64 0xAAAAAAAAAAAAAAAAL)

let test_popcount64_matches_naive () =
  let r = Rng.create ~seed:17 in
  for _ = 1 to 1000 do
    let x = Rng.bits64 r in
    let naive = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr naive
    done;
    check_int "matches naive" !naive (Bitops.popcount64 x)
  done

let test_ctz64 () =
  check_int "zero" 64 (Bitops.ctz64 0L);
  check_int "one" 0 (Bitops.ctz64 1L);
  check_int "bit 63" 63 (Bitops.ctz64 Int64.min_int);
  check_int "bit 12" 12 (Bitops.ctz64 0x1000L)

let test_clz64 () =
  check_int "zero" 64 (Bitops.clz64 0L);
  check_int "one" 63 (Bitops.clz64 1L);
  check_int "top bit" 0 (Bitops.clz64 Int64.min_int)

let test_power_of_two () =
  check_bool "1" true (Bitops.is_power_of_two 1);
  check_bool "64" true (Bitops.is_power_of_two 64);
  check_bool "63" false (Bitops.is_power_of_two 63);
  check_bool "0" false (Bitops.is_power_of_two 0);
  check_bool "-4" false (Bitops.is_power_of_two (-4))

let test_rounding () =
  check_int "ceil_div exact" 4 (Bitops.ceil_div 16 4);
  check_int "ceil_div up" 5 (Bitops.ceil_div 17 4);
  check_int "round_up" 20 (Bitops.round_up 17 4);
  check_int "round_up exact" 16 (Bitops.round_up 16 4);
  check_int "round_down" 16 (Bitops.round_down 19 4)

(* --- Checksum --- *)

let test_crc32_vectors () =
  (* Standard CRC-32 (IEEE) test vectors. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Checksum.crc32_string "123456789");
  Alcotest.(check int32) "empty" 0l (Checksum.crc32_string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Checksum.crc32_string "a")

let test_crc32_range () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "windowed" 0xCBF43926l (Checksum.crc32 b ~pos:2 ~len:9);
  Alcotest.check_raises "oob" (Invalid_argument "Checksum.crc32: range out of bounds")
    (fun () -> ignore (Checksum.crc32 b ~pos:10 ~len:9))

let test_crc32_detects_change () =
  let b = Bytes.make 100 'q' in
  let before = Checksum.crc32_all b in
  Bytes.set b 50 'r';
  check_bool "differs" true (before <> Checksum.crc32_all b)

(* --- Histo --- *)

let test_histo_binning () =
  let h = Histo.create ~max_value:32767 ~bin_width:1024 in
  check_int "bins" 32 (Histo.bins h);
  check_int "bin of 0" 0 (Histo.bin_of_value h 0);
  check_int "bin of 1023" 0 (Histo.bin_of_value h 1023);
  check_int "bin of 1024" 1 (Histo.bin_of_value h 1024);
  check_int "bin of 32767" 31 (Histo.bin_of_value h 32767);
  check_int "clamped above" 31 (Histo.bin_of_value h 99999);
  let lo, hi = Histo.bin_range h 31 in
  check_int "last bin lo" 31744 lo;
  check_int "last bin hi" 32767 hi

let test_histo_add_remove () =
  let h = Histo.create ~max_value:100 ~bin_width:10 in
  Histo.add h 5;
  Histo.add h 15;
  Histo.add h 15;
  check_int "total" 3 (Histo.total h);
  check_int "bin0" 1 (Histo.count h 0);
  check_int "bin1" 2 (Histo.count h 1);
  Histo.remove h 15;
  check_int "bin1 after remove" 1 (Histo.count h 1);
  check_int "total after remove" 2 (Histo.total h)

let test_histo_move () =
  let h = Histo.create ~max_value:100 ~bin_width:10 in
  Histo.add h 5;
  Histo.move h ~from_value:5 ~to_value:95;
  check_int "bin0 emptied" 0 (Histo.count h 0);
  check_int "bin9 filled" 1 (Histo.count h 9);
  check_int "total stable" 1 (Histo.total h);
  (* same-bin move is a no-op *)
  Histo.move h ~from_value:95 ~to_value:91;
  check_int "same-bin move" 1 (Histo.count h 9)

let test_histo_highest () =
  let h = Histo.create ~max_value:100 ~bin_width:10 in
  Alcotest.(check (option int)) "empty" None (Histo.highest_nonempty h);
  Histo.add h 5;
  Histo.add h 55;
  Alcotest.(check (option int)) "highest" (Some 5) (Histo.highest_nonempty h)

let prop_histo_total_conserved =
  QCheck.Test.make ~name:"histo total equals adds minus removes" ~count:200
    QCheck.(list (int_bound 100))
    (fun values ->
      let h = Histo.create ~max_value:100 ~bin_width:7 in
      List.iter (Histo.add h) values;
      let sum = ref 0 in
      Histo.iter h (fun _ c -> sum := !sum + c);
      !sum = List.length values && Histo.total h = List.length values)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "23" ];
  let s = Table.render t in
  check_bool "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: _ -> check_bool "header mentions name" true (String.length header >= 4)
  | [] -> Alcotest.fail "no lines");
  check_int "line count (header+rule+2 rows+trailing)" 5 (List.length lines)

let test_table_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* --- Series --- *)

let test_series_basics () =
  let s = Series.make "s" [ (1.0, 10.0); (2.0, 30.0); (3.0, 20.0) ] in
  check_float "peak" 30.0 (Series.peak_y s);
  check_float "max_x" 3.0 (Series.max_x s);
  check_float "last" 20.0 (Series.y_at_last s)

let test_series_interpolate () =
  let s = Series.make "s" [ (0.0, 0.0); (10.0, 100.0) ] in
  Alcotest.(check (option (float 1e-9))) "mid" (Some 50.0) (Series.interpolate s 5.0);
  Alcotest.(check (option (float 1e-9))) "edge" (Some 100.0) (Series.interpolate s 10.0);
  Alcotest.(check (option (float 1e-9))) "outside" None (Series.interpolate s 11.0)

(* --- Queueing --- *)

let test_mg1_low_load () =
  match Queueing.mg1_response_time ~service_time:0.001 ~cv2:1.0 ~arrival_rate:1.0 with
  | Some r -> check_bool "latency near service time" true (r < 0.0011)
  | None -> Alcotest.fail "stable queue reported unstable"

let test_mg1_unstable () =
  check_bool "unstable" true
    (Queueing.mg1_response_time ~service_time:0.001 ~cv2:1.0 ~arrival_rate:2000.0 = None)

let test_mg1_monotonic () =
  let lat rate =
    match Queueing.mg1_response_time ~service_time:0.001 ~cv2:1.0 ~arrival_rate:rate with
    | Some r -> r
    | None -> infinity
  in
  check_bool "latency grows with load" true (lat 100.0 < lat 500.0 && lat 500.0 < lat 900.0)

let test_sweep_shape () =
  let pts = Queueing.sweep ~service_time:0.001 ~cv2:1.0 ~loads:[ 100.0; 500.0; 900.0; 2000.0 ] in
  check_int "points" 4 (List.length pts);
  let throughputs = List.map fst pts in
  let max_tp = List.fold_left Float.max 0.0 throughputs in
  check_bool "throughput capped at capacity" true (max_tp <= 980.0 +. 1e-9);
  (* past saturation latency keeps rising *)
  match List.rev pts with
  | (_, last_lat) :: (_, prev_lat) :: _ -> check_bool "saturation tail" true (last_lat > prev_lat)
  | _ -> Alcotest.fail "short sweep"

(* --- Json --- *)

let test_json_parse_roundtrip () =
  let src = {|{"a": 1, "b": [true, null, -2.5e1, "xé\n"], "c": {"d": 0.125}}|} in
  let v = Json.parse_exn src in
  (match Json.member "a" v with
  | Some (Json.Num 1.0) -> ()
  | _ -> Alcotest.fail "member a");
  (match Json.member "b" v with
  | Some (Json.List [ Json.Bool true; Json.Null; Json.Num -25.0; Json.Str s ]) ->
    Alcotest.(check string) "unicode escape decoded" "x\xc3\xa9\n" s
  | _ -> Alcotest.fail "member b");
  (* printing then reparsing yields the same tree *)
  check_bool "print/parse fixpoint" true (Json.parse_exn (Json.to_string v) = v)

let test_json_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "truncated object" true (bad {|{"a": 1|});
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "bare word" true (bad "nulle");
  check_bool "unterminated string" true (bad {|"abc|})

(* --- Int_sort --- *)

(* [sort] and [sort_uniq] on the prefix [xs] of an array agree with
   List's, and leave the [tail] slots after it alone. *)
let int_sort_agrees_with_list xs tail =
  let len = List.length xs in
  let a = Array.of_list (xs @ List.init tail (fun i -> 1000 + i)) in
  let b = Array.copy a in
  Wafl_util.Int_sort.sort a ~len;
  let m = Wafl_util.Int_sort.sort_uniq b ~len in
  Array.to_list (Array.sub a 0 len) = List.sort Int.compare xs
  && Array.to_list (Array.sub b 0 m) = List.sort_uniq Int.compare xs
  && Array.sub a len tail = Array.init tail (fun i -> 1000 + i)
  && Array.sub b len tail = Array.init tail (fun i -> 1000 + i)

let prop_int_sort_matches_list_sort =
  QCheck.Test.make ~name:"int_sort sorts and dedups a prefix like List" ~count:300
    QCheck.(pair (list (int_range (-50) 50)) small_nat)
    (fun (xs, tail) -> int_sort_agrees_with_list xs tail)

(* The shaped inputs the sorts also meet: already ascending (the CP's
   sorted slices, which [sort_uniq] only checks), ascending with
   repeats, descending and all equal.  The list is drawn as above, so
   sizes and shrinking are the same. *)
let int_sort_shape shape xs =
  match shape with
  | 0 -> List.sort_uniq Int.compare xs
  | 1 -> List.sort Int.compare (xs @ xs)
  | 2 -> List.rev (List.sort Int.compare xs)
  | _ -> List.map (fun _ -> 7) xs

let prop_int_sort_shaped_inputs =
  QCheck.Test.make ~name:"int_sort sorts and dedups shaped prefixes like List" ~count:300
    QCheck.(triple (int_bound 3) (list (int_range (-50) 50)) small_nat)
    (fun (shape, xs, tail) -> int_sort_agrees_with_list (int_sort_shape shape xs) tail)

let test_int_sort_allocates_nothing () =
  let n = 10_000 in
  let a = Array.init n (fun i -> (i * 7919) mod n) in
  let before = Gc.minor_words () in
  let m = Wafl_util.Int_sort.sort_uniq a ~len:n in
  let words = Gc.minor_words () -. before in
  check_int "distinct" n m;
  check_bool "sorted" true (a = Array.init n Fun.id);
  check_bool (Printf.sprintf "no minor-heap words (%.0f)" words) true (words = 0.0);
  Alcotest.check_raises "length past the array"
    (Invalid_argument "Int_sort.sort: length out of bounds") (fun () ->
      Wafl_util.Int_sort.sort a ~len:(n + 1))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_histo_total_conserved ] in
  let sort_suite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_int_sort_matches_list_sort; prop_int_sort_shaped_inputs ]
  in
  Alcotest.run "wafl_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick test_rng_int_allocates_nothing;
        ] );
      ( "bitops",
        [
          Alcotest.test_case "popcount64" `Quick test_popcount64;
          Alcotest.test_case "popcount64 vs naive" `Quick test_popcount64_matches_naive;
          Alcotest.test_case "ctz64" `Quick test_ctz64;
          Alcotest.test_case "clz64" `Quick test_clz64;
          Alcotest.test_case "is_power_of_two" `Quick test_power_of_two;
          Alcotest.test_case "rounding" `Quick test_rounding;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "range" `Quick test_crc32_range;
          Alcotest.test_case "detects change" `Quick test_crc32_detects_change;
        ] );
      ( "histo",
        [
          Alcotest.test_case "binning" `Quick test_histo_binning;
          Alcotest.test_case "add/remove" `Quick test_histo_add_remove;
          Alcotest.test_case "move" `Quick test_histo_move;
          Alcotest.test_case "highest_nonempty" `Quick test_histo_highest;
        ]
        @ qsuite );
      ( "int_sort",
        Alcotest.test_case "allocates nothing" `Quick test_int_sort_allocates_nothing
        :: sort_suite );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "interpolate" `Quick test_series_interpolate;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "low load" `Quick test_mg1_low_load;
          Alcotest.test_case "unstable" `Quick test_mg1_unstable;
          Alcotest.test_case "monotonic" `Quick test_mg1_monotonic;
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
    ]
