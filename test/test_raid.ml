(* Tests for Wafl_raid: geometry, stripe, tetris, group. *)

open Wafl_raid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let geom = Geometry.create ~data_devices:6 ~parity_devices:1 ~device_blocks:1000

(* --- Geometry --- *)

let test_geometry_basics () =
  check_int "data devices" 6 (Geometry.data_devices geom);
  check_int "parity" 1 (Geometry.parity_devices geom);
  check_int "stripes" 1000 (Geometry.stripes geom);
  check_int "total blocks" 6000 (Geometry.total_blocks geom)

let test_geometry_mapping () =
  let loc = Geometry.location_of_vbn geom 0 in
  check_int "vbn0 device" 0 loc.Geometry.device;
  check_int "vbn0 dbn" 0 loc.Geometry.dbn;
  let loc = Geometry.location_of_vbn geom 1500 in
  check_int "vbn1500 device" 1 loc.Geometry.device;
  check_int "vbn1500 dbn" 500 loc.Geometry.dbn;
  check_int "roundtrip" 1500 (Geometry.vbn_of_location geom loc)

let prop_geometry_roundtrip =
  QCheck.Test.make ~name:"vbn <-> location roundtrip" ~count:500
    QCheck.(int_bound 5999)
    (fun vbn ->
      let loc = Geometry.location_of_vbn geom vbn in
      Geometry.vbn_of_location geom loc = vbn)

let test_geometry_stripe () =
  check_int "stripe of vbn" 500 (Geometry.stripe_of_vbn geom 1500);
  let vbns = Geometry.vbns_of_stripe geom 10 in
  check_int "stripe width" 6 (List.length vbns);
  List.iter (fun v -> check_int "same dbn" 10 (Geometry.stripe_of_vbn geom v)) vbns;
  (* all on different devices *)
  let devices = List.map (fun v -> (Geometry.location_of_vbn geom v).Geometry.device) vbns in
  Alcotest.(check (list int)) "device order" [ 0; 1; 2; 3; 4; 5 ] devices

let test_geometry_device_range () =
  let r = Geometry.device_vbn_range geom 2 in
  check_int "start" 2000 (Wafl_block.Extent.start r);
  check_int "len" 1000 (Wafl_block.Extent.len r)

let test_geometry_bounds () =
  Alcotest.check_raises "oob vbn" (Invalid_argument "Geometry: VBN out of bounds") (fun () ->
      ignore (Geometry.location_of_vbn geom 6000))

(* --- Reference accounting ---

   A direct list-and-hashtable statement of the flush accounting, the
   oracle the array kernel in [Group.record_flush] is checked against:
   per-stripe and per-tetris hashtables, one location record per block,
   per-device chain coalescing. *)

module Naive = struct
  let distinct vbns = List.sort_uniq Int.compare vbns

  let classify geom vbns =
    let data = Geometry.data_devices geom and parity = Geometry.parity_devices geom in
    let per_stripe = Hashtbl.create 256 in
    List.iter
      (fun vbn ->
        let s = Geometry.stripe_of_vbn geom vbn in
        Hashtbl.replace per_stripe s (1 + Option.value ~default:0 (Hashtbl.find_opt per_stripe s)))
      (distinct vbns);
    Hashtbl.fold
      (fun _ count (c : Stripe.classification) ->
        if count = data then
          {
            c with
            full_stripes = c.full_stripes + 1;
            blocks_in_full = c.blocks_in_full + count;
            parity_writes = c.parity_writes + parity;
          }
        else
          {
            c with
            partial_stripes = c.partial_stripes + 1;
            blocks_in_partial = c.blocks_in_partial + count;
            parity_writes = c.parity_writes + parity;
            extra_reads = c.extra_reads + count + parity;
          })
      per_stripe
      {
        Stripe.full_stripes = 0;
        partial_stripes = 0;
        blocks_in_full = 0;
        blocks_in_partial = 0;
        parity_writes = 0;
        extra_reads = 0;
      }

  (* (tetris index, its VBNs) in index order *)
  let group geom vbns =
    let by_tetris = Hashtbl.create 64 in
    List.iter
      (fun vbn ->
        let index = Geometry.stripe_of_vbn geom vbn / Tetris.stripes_per_tetris in
        Hashtbl.replace by_tetris index
          (vbn :: Option.value ~default:[] (Hashtbl.find_opt by_tetris index)))
      (distinct vbns);
    List.sort compare (Hashtbl.fold (fun i vs acc -> (i, List.rev vs) :: acc) by_tetris [])

  let summarize geom vbns =
    let tetrises = List.length (group geom vbns) in
    let per_device = Array.make (Geometry.data_devices geom) 0 in
    List.iter
      (fun vbn ->
        let d = (Geometry.location_of_vbn geom vbn).Geometry.device in
        per_device.(d) <- per_device.(d) + 1)
      (distinct vbns);
    let blocks = List.length (distinct vbns) in
    {
      Tetris.tetrises;
      blocks;
      mean_blocks_per_tetris =
        (if tetrises = 0 then 0.0 else float_of_int blocks /. float_of_int tetrises);
      per_device_blocks = per_device;
    }

  let chains geom vbns =
    let by_device = Hashtbl.create 16 in
    List.iter
      (fun vbn ->
        let loc = Geometry.location_of_vbn geom vbn in
        Hashtbl.replace by_device loc.Geometry.device
          (loc.Geometry.dbn
          :: Option.value ~default:[] (Hashtbl.find_opt by_device loc.Geometry.device)))
      vbns;
    Hashtbl.fold
      (fun _ dbns (count, blocks) ->
        let s = Wafl_block.Chain.of_blocks dbns in
        (count + s.Wafl_block.Chain.chains, blocks + s.Wafl_block.Chain.blocks))
      by_device (0, 0)

  let record_flush geom vbns =
    let chains, chain_blocks = chains geom vbns in
    {
      Group.classification = classify geom vbns;
      tetris = summarize geom vbns;
      chains;
      chain_blocks;
    }

  let accumulate (tot : Group.totals) (f : Group.flush_report) =
    {
      Group.flushes = tot.flushes + 1;
      blocks_written = tot.blocks_written + f.tetris.Tetris.blocks;
      tetrises_written = tot.tetrises_written + f.tetris.Tetris.tetrises;
      full_stripes = tot.full_stripes + f.classification.Stripe.full_stripes;
      partial_stripes = tot.partial_stripes + f.classification.Stripe.partial_stripes;
      parity_writes = tot.parity_writes + f.classification.Stripe.parity_writes;
      extra_parity_reads = tot.extra_parity_reads + f.classification.Stripe.extra_reads;
      per_device_blocks =
        Array.mapi (fun i n -> n + f.tetris.Tetris.per_device_blocks.(i)) tot.per_device_blocks;
      chain_count = tot.chain_count + f.chains;
      chain_blocks = tot.chain_blocks + f.chain_blocks;
    }
end

(* One flush's VBNs, written as a list, passed as the slice
   [Group.record_flush] takes, between two out-of-group VBNs: reading
   past either end of the slice raises. *)
let record g vbns =
  let a = Array.of_list ((-1 :: vbns) @ [ -1 ]) in
  Group.record_flush g ~vbns:a ~pos:1 ~len:(List.length vbns)

let flush vbns = record (Group.create geom) vbns
let classify vbns = (flush vbns).Group.classification
let summarize vbns = (flush vbns).Group.tetris

(* --- Stripe --- *)

let test_stripe_full () =
  (* write one complete stripe: vbns at dbn=5 across all 6 devices *)
  let vbns = Geometry.vbns_of_stripe geom 5 in
  let c = classify vbns in
  check_int "full" 1 c.Stripe.full_stripes;
  check_int "partial" 0 c.Stripe.partial_stripes;
  check_int "parity writes" 1 c.Stripe.parity_writes;
  check_int "no extra reads" 0 c.Stripe.extra_reads;
  Alcotest.(check (float 1e-9)) "fullness" 1.0 (Stripe.fullness_ratio c)

let test_stripe_partial () =
  (* write 2 of 6 blocks of a stripe *)
  let vbns = [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 7 };
               Geometry.vbn_of_location geom { Geometry.device = 3; dbn = 7 } ] in
  let c = classify vbns in
  check_int "partial" 1 c.Stripe.partial_stripes;
  check_int "blocks in partial" 2 c.Stripe.blocks_in_partial;
  (* RMW: read 2 old data + 1 old parity *)
  check_int "extra reads" 3 c.Stripe.extra_reads;
  check_int "device writes" 3 (Stripe.total_device_writes geom c)

let test_stripe_mixed () =
  let full = Geometry.vbns_of_stripe geom 1 in
  let partial = [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 2 } ] in
  let c = classify (full @ partial) in
  check_int "full" 1 c.Stripe.full_stripes;
  check_int "partial" 1 c.Stripe.partial_stripes;
  let ratio = Stripe.fullness_ratio c in
  check_bool "ratio" true (abs_float (ratio -. (6.0 /. 7.0)) < 1e-9)

let test_stripe_duplicates () =
  let v = Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 3 } in
  let c = classify [ v; v; v ] in
  check_int "counted once" 1 c.Stripe.blocks_in_partial

let prop_stripe_blocks_conserved =
  QCheck.Test.make ~name:"classified blocks = distinct vbns" ~count:200
    QCheck.(list (int_bound 5999))
    (fun vbns ->
      let c = classify vbns in
      let distinct = List.length (List.sort_uniq Int.compare vbns) in
      c.Stripe.blocks_in_full + c.Stripe.blocks_in_partial = distinct)

(* --- Tetris --- *)

let test_tetris_grouping () =
  (* stripes 0..63 are tetris 0; stripe 64 is tetris 1 *)
  let vbns =
    [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 0 };
      Geometry.vbn_of_location geom { Geometry.device = 1; dbn = 63 };
      Geometry.vbn_of_location geom { Geometry.device = 2; dbn = 64 } ]
  in
  let s = summarize vbns in
  check_int "two tetrises" 2 s.Tetris.tetrises;
  check_int "blocks" 3 s.Tetris.blocks;
  (match Naive.group geom vbns with
  | [ (0, t0); (1, t1) ] ->
    check_int "t0 blocks" 2 (List.length t0);
    check_int "t1 blocks" 1 (List.length t1)
  | _ -> Alcotest.fail "unexpected reference groups");
  (* a tetris boundary on one device: stripes 63 and 64 are two tetrises *)
  let d0 dbn = Geometry.vbn_of_location geom { Geometry.device = 0; dbn } in
  check_int "boundary splits" 2 (summarize [ d0 63; d0 64 ]).Tetris.tetrises;
  check_int "same tetris" 1 (summarize [ d0 64; d0 127 ]).Tetris.tetrises

let test_tetris_summary () =
  let vbns = Geometry.vbns_of_stripe geom 0 @ Geometry.vbns_of_stripe geom 100 in
  let s = summarize vbns in
  check_int "tetrises" 2 s.Tetris.tetrises;
  check_int "blocks" 12 s.Tetris.blocks;
  Alcotest.(check (float 1e-9)) "mean" 6.0 s.Tetris.mean_blocks_per_tetris;
  Array.iter (fun n -> check_int "per device" 2 n) s.Tetris.per_device_blocks

let prop_tetris_blocks_conserved =
  QCheck.Test.make ~name:"tetris blocks = distinct vbns" ~count:200
    QCheck.(list (int_bound 5999))
    (fun vbns ->
      let s = summarize vbns in
      let distinct = List.length (List.sort_uniq Int.compare vbns) in
      s.Tetris.blocks = distinct
      && Array.fold_left ( + ) 0 s.Tetris.per_device_blocks = distinct)

(* --- Group --- *)

let test_group_accumulates () =
  let g = Group.create geom in
  let _ = record g (Geometry.vbns_of_stripe geom 0) in
  let _ = record g [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 999 } ] in
  let t = Group.totals g in
  check_int "flushes" 2 t.Group.flushes;
  check_int "blocks" 7 t.Group.blocks_written;
  check_int "full" 1 t.Group.full_stripes;
  check_int "partial" 1 t.Group.partial_stripes;
  check_int "tetrises" 2 t.Group.tetrises_written;
  check_bool "fullness" true (abs_float (Group.stripe_fullness t -. 0.5) < 1e-9)

let test_group_chains () =
  let g = Group.create geom in
  (* 3 consecutive dbns on device 0: one chain *)
  let vbns = List.map (fun dbn -> Geometry.vbn_of_location geom { Geometry.device = 0; dbn }) [ 10; 11; 12 ] in
  let _ = record g vbns in
  let t = Group.totals g in
  check_int "one chain" 1 t.Group.chain_count;
  Alcotest.(check (float 1e-9)) "chain len 3" 3.0 (Group.mean_chain_len t)

let test_group_chain_split_across_devices () =
  let g = Group.create geom in
  (* same dbns on two devices: two chains even though vbns look contiguous per device *)
  let vbns =
    List.concat_map
      (fun device ->
        List.map (fun dbn -> Geometry.vbn_of_location geom { Geometry.device; dbn }) [ 0; 1 ])
      [ 0; 1 ]
  in
  let _ = record g vbns in
  check_int "two chains" 2 (Group.totals g).Group.chain_count

let test_group_reset () =
  let g = Group.create geom in
  let _ = record g (Geometry.vbns_of_stripe geom 0) in
  Group.reset g;
  check_int "zeroed" 0 (Group.totals g).Group.blocks_written

(* --- Kernel vs reference --- *)

(* A small group (4 data + 2 parity devices of 96 blocks) so random flushes
   fill whole stripes and tetrises.  The generator mixes uniform VBNs,
   whole stripes, repeats, and the VBNs either side of each device
   boundary: the last DBN of device d and DBN 0 of device d+1 are
   consecutive VBNs but must count as two chains. *)
let small = Geometry.create ~data_devices:4 ~parity_devices:2 ~device_blocks:96

let gen_flush =
  let open QCheck.Gen in
  let total = Geometry.total_blocks small and db = Geometry.device_blocks small in
  let piece =
    frequency
      [
        (4, map (fun v -> [ v ]) (int_bound (total - 1)));
        (1, map (Geometry.vbns_of_stripe small) (int_bound (db - 1)));
        (1, map (fun d -> [ (d * db) - 1; d * db ]) (int_range 1 (Geometry.data_devices small - 1)));
        (1, map (fun v -> [ v; v ]) (int_bound (total - 1)));
        (1, map (fun v -> List.init 8 (fun i -> min (total - 1) (v + i))) (int_bound (total - 1)));
      ]
  in
  map List.concat (list_size (int_bound 40) piece)

let same_report (a : Group.flush_report) (b : Group.flush_report) =
  a.classification = b.classification
  && a.tetris.Tetris.tetrises = b.tetris.Tetris.tetrises
  && a.tetris.Tetris.blocks = b.tetris.Tetris.blocks
  && Float.equal a.tetris.Tetris.mean_blocks_per_tetris b.tetris.Tetris.mean_blocks_per_tetris
  && a.tetris.Tetris.per_device_blocks = b.tetris.Tetris.per_device_blocks
  && a.chains = b.chains && a.chain_blocks = b.chain_blocks

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"record_flush matches the list reference" ~count:300
    QCheck.(make ~print:Print.(list (list int)) Gen.(list_size (int_range 1 6) gen_flush))
    (fun flushes ->
      let g = Group.create small in
      let expected =
        List.fold_left
          (fun tot vbns ->
            let want = Naive.record_flush small vbns in
            if not (same_report (record g vbns) want) then
              QCheck.Test.fail_reportf "flush report differs on %s"
                (QCheck.Print.(list int) vbns);
            Naive.accumulate tot want)
          (Group.totals (Group.create small))
          flushes
      in
      Group.totals g = expected)

let test_group_empty_flush () =
  let g = Group.create geom in
  let f = record g [] in
  check_bool "empty report" true (same_report f (Naive.record_flush geom []));
  check_int "counted as a flush" 1 (Group.totals g).Group.flushes;
  check_int "no tetrises" 0 (Group.totals g).Group.tetrises_written

let test_group_device_boundary_chains () =
  (* VBNs 999 and 1000: adjacent numbers, different devices *)
  let f = flush [ 999; 1000 ] in
  check_int "two chains" 2 f.Group.chains;
  check_int "two blocks" 2 f.Group.chain_blocks

let test_group_flush_allocation_flat () =
  let g = Group.create geom in
  (* distinct VBNs in scrambled order: 7919 is coprime with 6000; the
     16-block flush is a slice from the middle of the same array *)
  let vbns = Array.init 4096 (fun i -> i * 7919 mod 6000) in
  let words ~pos ~len =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Group.record_flush g ~vbns ~pos ~len));
    Gc.minor_words () -. before
  in
  ignore (words ~pos:0 ~len:4096) (* grows the scratch array once *);
  let w_big = words ~pos:0 ~len:4096 and w_tiny = words ~pos:1000 ~len:16 in
  check_bool
    (Printf.sprintf "4096-block flush allocates no more than a 16-block one (%.0f vs %.0f words)"
       w_big w_tiny)
    true (w_big <= w_tiny)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_geometry_roundtrip;
        prop_stripe_blocks_conserved;
        prop_tetris_blocks_conserved;
        prop_kernel_matches_reference;
      ]
  in
  Alcotest.run "wafl_raid"
    [
      ( "geometry",
        [
          Alcotest.test_case "basics" `Quick test_geometry_basics;
          Alcotest.test_case "mapping" `Quick test_geometry_mapping;
          Alcotest.test_case "stripe" `Quick test_geometry_stripe;
          Alcotest.test_case "device range" `Quick test_geometry_device_range;
          Alcotest.test_case "bounds" `Quick test_geometry_bounds;
        ] );
      ( "stripe",
        [
          Alcotest.test_case "full" `Quick test_stripe_full;
          Alcotest.test_case "partial" `Quick test_stripe_partial;
          Alcotest.test_case "mixed" `Quick test_stripe_mixed;
          Alcotest.test_case "duplicates" `Quick test_stripe_duplicates;
        ] );
      ( "tetris",
        [
          Alcotest.test_case "grouping" `Quick test_tetris_grouping;
          Alcotest.test_case "summary" `Quick test_tetris_summary;
        ] );
      ( "group",
        [
          Alcotest.test_case "accumulates" `Quick test_group_accumulates;
          Alcotest.test_case "chains" `Quick test_group_chains;
          Alcotest.test_case "chains split across devices" `Quick
            test_group_chain_split_across_devices;
          Alcotest.test_case "reset" `Quick test_group_reset;
          Alcotest.test_case "empty flush" `Quick test_group_empty_flush;
          Alcotest.test_case "device boundary splits chains" `Quick
            test_group_device_boundary_chains;
          Alcotest.test_case "flush allocation independent of size" `Quick
            test_group_flush_allocation_flat;
        ]
        @ qsuite );
    ]
