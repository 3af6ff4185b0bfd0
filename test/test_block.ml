(* Tests for Wafl_block: units, extent, chain. *)

open Wafl_block

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Units --- *)

let test_units_constants () =
  check_int "block size" 4096 Units.block_size;
  check_int "bits per metafile block" 32768 Units.bits_per_metafile_block;
  check_int "default raid-agnostic AA" 32768 Units.default_raid_agnostic_aa_blocks;
  check_int "default HDD AA stripes" 4096 Units.default_hdd_aa_stripes;
  check_int "tetris stripes" 64 Units.tetris_stripes;
  check_int "azcs region" 64 Units.azcs_region_blocks;
  check_int "azcs data" 63 Units.azcs_data_blocks

let test_units_conversion () =
  check_int "blocks of 4096 bytes" 1 (Units.blocks_of_bytes 4096);
  check_int "blocks of 4097 bytes" 2 (Units.blocks_of_bytes 4097);
  check_int "bytes of 2 blocks" 8192 (Units.bytes_of_blocks 2);
  (* the paper's example: a 16TiB device has 4G blocks... actually 1G *)
  check_int "16TiB = 4G blocks / 4" (4 * 1024 * 1024 * 1024)
    (Units.blocks_of_bytes (16 * Units.tib))

let test_units_paper_example () =
  (* §3.3.1's example: a 16TiB device and ~1M default-sized AAs.  The paper
     states "16TiB/4KiB = 1G VBNs", but 16TiB/4KiB is 4G; 4G/4k = 1M AAs is
     the figure consistent with the 1M-AA / ~1MiB-of-memory conclusion. *)
  let vbns = 16 * Units.tib / Units.block_size in
  check_int "4G VBNs" (4 * 1024 * 1024 * 1024) vbns;
  check_int "1M AAs" (1024 * 1024) (vbns / Units.default_hdd_aa_stripes)

(* --- Extent --- *)

let ext s l = Extent.make ~start:s ~len:l

let test_extent_basics () =
  let e = ext 10 5 in
  check_int "start" 10 (Extent.start e);
  check_int "len" 5 (Extent.len e);
  check_int "last" 14 (Extent.last e);
  check_bool "mem start" true (Extent.mem e 10);
  check_bool "mem last" true (Extent.mem e 14);
  check_bool "not mem below" false (Extent.mem e 9);
  check_bool "not mem above" false (Extent.mem e 15)

let test_extent_overlap_adjacent () =
  check_bool "overlap" true (Extent.overlap (ext 0 10) (ext 5 10));
  check_bool "no overlap" false (Extent.overlap (ext 0 5) (ext 5 5));
  check_bool "adjacent" true (Extent.adjacent (ext 0 5) (ext 5 5));
  check_bool "not adjacent" false (Extent.adjacent (ext 0 5) (ext 6 5))

let test_extent_merge () =
  (match Extent.merge (ext 0 5) (ext 5 5) with
  | Some m ->
    check_int "merged start" 0 (Extent.start m);
    check_int "merged len" 10 (Extent.len m)
  | None -> Alcotest.fail "adjacent should merge");
  check_bool "disjoint no merge" true (Extent.merge (ext 0 5) (ext 6 5) = None)

let test_extent_split_take () =
  (match Extent.split_at (ext 0 10) 4 with
  | Some (a, b) ->
    check_int "left len" 4 (Extent.len a);
    check_int "right start" 4 (Extent.start b);
    check_int "right len" 6 (Extent.len b)
  | None -> Alcotest.fail "split inside");
  check_bool "split at boundary" true (Extent.split_at (ext 0 10) 0 = None);
  check_bool "split past end" true (Extent.split_at (ext 0 10) 10 = None);
  let taken, rest = Extent.take (ext 0 10) 3 in
  check_int "take len" 3 (Extent.len taken);
  (match rest with
  | Some r -> check_int "rest len" 7 (Extent.len r)
  | None -> Alcotest.fail "rest expected");
  let taken2, rest2 = Extent.take (ext 0 10) 15 in
  check_int "take all" 10 (Extent.len taken2);
  check_bool "no rest" true (rest2 = None)

let test_extent_coalesce () =
  let merged = Extent.coalesce [ ext 10 5; ext 0 5; ext 5 5; ext 20 2 ] in
  check_int "two extents" 2 (List.length merged);
  check_int "total preserved" 17 (Extent.total_len merged);
  match merged with
  | [ a; b ] ->
    check_int "first spans 0..14" 15 (Extent.len a);
    check_int "second is 20..21" 20 (Extent.start b)
  | _ -> Alcotest.fail "unexpected shape"

let prop_coalesce_preserves_coverage =
  QCheck.Test.make ~name:"coalesce preserves covered set" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 100) (int_range 1 10)))
    (fun pairs ->
      let extents = List.map (fun (s, l) -> ext s l) pairs in
      let covered es =
        let set = Hashtbl.create 64 in
        List.iter
          (fun e ->
            for i = Extent.start e to Extent.last e do
              Hashtbl.replace set i ()
            done)
          es;
        Hashtbl.fold (fun k () acc -> k :: acc) set [] |> List.sort compare
      in
      let before = covered extents and after = covered (Extent.coalesce extents) in
      before = after)

let prop_coalesce_disjoint =
  QCheck.Test.make ~name:"coalesced extents are disjoint and non-adjacent" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 100) (int_range 1 10)))
    (fun pairs ->
      let extents = List.map (fun (s, l) -> ext s l) pairs in
      let merged = Extent.coalesce extents in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          Extent.last a + 1 < Extent.start b && ok rest
        | _ -> true
      in
      ok merged)

(* --- Chain --- *)

let test_chain_single_run () =
  let s = Chain.of_blocks [ 3; 1; 2; 0; 4 ] in
  check_int "one chain" 1 s.Chain.chains;
  check_int "five blocks" 5 s.Chain.blocks;
  check_int "max" 5 s.Chain.max_len

let test_chain_fragmented () =
  let s = Chain.of_blocks [ 0; 2; 4; 6 ] in
  check_int "four chains" 4 s.Chain.chains;
  Alcotest.(check (float 1e-9)) "mean 1" 1.0 s.Chain.mean_len

let test_chain_duplicates () =
  let s = Chain.of_blocks [ 1; 1; 2; 2 ] in
  check_int "dupes collapse" 2 s.Chain.blocks;
  check_int "one chain" 1 s.Chain.chains

let test_chain_mixed () =
  let s = Chain.of_blocks [ 10; 11; 12; 20; 30; 31 ] in
  check_int "three chains" 3 s.Chain.chains;
  check_int "blocks" 6 s.Chain.blocks;
  check_int "max 3" 3 s.Chain.max_len;
  check_int "min 1" 1 s.Chain.min_len

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_coalesce_preserves_coverage; prop_coalesce_disjoint ]
  in
  Alcotest.run "wafl_block"
    [
      ( "units",
        [
          Alcotest.test_case "constants" `Quick test_units_constants;
          Alcotest.test_case "conversion" `Quick test_units_conversion;
          Alcotest.test_case "paper example" `Quick test_units_paper_example;
        ] );
      ( "extent",
        [
          Alcotest.test_case "basics" `Quick test_extent_basics;
          Alcotest.test_case "overlap/adjacent" `Quick test_extent_overlap_adjacent;
          Alcotest.test_case "merge" `Quick test_extent_merge;
          Alcotest.test_case "split/take" `Quick test_extent_split_take;
          Alcotest.test_case "coalesce" `Quick test_extent_coalesce;
        ]
        @ qsuite );
      ( "chain",
        [
          Alcotest.test_case "single run" `Quick test_chain_single_run;
          Alcotest.test_case "fragmented" `Quick test_chain_fragmented;
          Alcotest.test_case "duplicates" `Quick test_chain_duplicates;
          Alcotest.test_case "mixed" `Quick test_chain_mixed;
        ] );
    ]
