(* Tests for Wafl_aa: topology, sizing, score. *)

open Wafl_aa
open Wafl_raid
open Wafl_bitmap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let geom = Geometry.create ~data_devices:4 ~parity_devices:1 ~device_blocks:1024

(* --- Topology: RAID-aware --- *)

let raid_topo = Topology.raid_aware ~geometry:geom ~aa_stripes:128

let test_raid_topo_counts () =
  check_int "aa count" 8 (Topology.aa_count raid_topo);
  check_int "total blocks" 4096 (Topology.total_blocks raid_topo);
  check_int "capacity" 512 (Topology.aa_capacity raid_topo 0);
  check_int "full capacity" 512 (Topology.full_aa_capacity raid_topo)

let test_raid_topo_ragged () =
  (* 1024 stripes, 300 per AA -> AAs of 300,300,300,124 stripes *)
  let t = Topology.raid_aware ~geometry:geom ~aa_stripes:300 in
  check_int "aa count" 4 (Topology.aa_count t);
  check_int "last capacity" (124 * 4) (Topology.aa_capacity t 3);
  check_int "full capacity" (300 * 4) (Topology.full_aa_capacity t)

let test_raid_topo_extents () =
  let extents = Topology.extents_of_aa raid_topo 1 in
  check_int "one extent per device" 4 (List.length extents);
  List.iteri
    (fun device e ->
      check_int "start" ((device * 1024) + 128) (Wafl_block.Extent.start e);
      check_int "len" 128 (Wafl_block.Extent.len e))
    extents

let test_raid_topo_aa_of_vbn () =
  (* vbn 0 = device 0 dbn 0 -> stripe 0 -> AA 0 *)
  check_int "vbn 0" 0 (Topology.aa_of_vbn raid_topo 0);
  (* device 2, dbn 130 -> stripe 130 -> AA 1 *)
  let vbn = Geometry.vbn_of_location geom { Geometry.device = 2; dbn = 130 } in
  check_int "stripe 130" 1 (Topology.aa_of_vbn raid_topo vbn);
  (* last vbn *)
  check_int "last" 7 (Topology.aa_of_vbn raid_topo 4095)

let test_raid_topo_iter_order () =
  (* Allocation order is stripe-major: fills whole stripes first. *)
  let order = ref [] in
  Topology.iter_aa_vbns raid_topo 0 ~f:(fun v -> order := v :: !order);
  let order = List.rev !order in
  check_int "count" 512 (List.length order);
  (match order with
  | a :: b :: c :: d :: e :: _ ->
    (* first four are stripe 0 on devices 0..3, then stripe 1 device 0 *)
    check_int "s0 d0" 0 a;
    check_int "s0 d1" 1024 b;
    check_int "s0 d2" 2048 c;
    check_int "s0 d3" 3072 d;
    check_int "s1 d0" 1 e
  | _ -> Alcotest.fail "short iteration");
  (* every vbn maps back to AA 0 *)
  List.iter (fun v -> check_int "aa" 0 (Topology.aa_of_vbn raid_topo v)) order

let prop_raid_topo_partition =
  QCheck.Test.make ~name:"every VBN belongs to exactly the AA that iterates it" ~count:50
    QCheck.(int_bound 4095)
    (fun vbn ->
      let aa = Topology.aa_of_vbn raid_topo vbn in
      let found = ref false in
      Topology.iter_aa_vbns raid_topo aa ~f:(fun v -> if v = vbn then found := true);
      !found)

(* --- Topology: RAID-agnostic --- *)

let agn_topo = Topology.raid_agnostic ~total_blocks:100_000 ~aa_blocks:32768

let test_agn_topo () =
  check_int "aa count" 4 (Topology.aa_count agn_topo);
  check_int "cap 0" 32768 (Topology.aa_capacity agn_topo 0);
  check_int "cap last (ragged)" (100_000 - (3 * 32768)) (Topology.aa_capacity agn_topo 3);
  check_int "aa of 0" 0 (Topology.aa_of_vbn agn_topo 0);
  check_int "aa of 32768" 1 (Topology.aa_of_vbn agn_topo 32768);
  check_int "extents" 1 (List.length (Topology.extents_of_aa agn_topo 2))

let test_agn_iter_sequential () =
  let t = Topology.raid_agnostic ~total_blocks:100 ~aa_blocks:30 in
  let seen = ref [] in
  Topology.iter_aa_vbns t 3 ~f:(fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "last ragged AA" [ 90; 91; 92; 93; 94; 95; 96; 97; 98; 99 ]
    (List.rev !seen)

(* --- Sizing --- *)

let test_sizing_defaults () =
  check_int "hdd" 4096 Sizing.default_hdd_stripes;
  check_int "agnostic" 32768 Sizing.default_raid_agnostic_blocks

let test_sizing_ssd () =
  let p = Wafl_device.Profile.default_ssd in
  let stripes = Sizing.ssd_stripes p in
  check_int "4 erase blocks" (4 * 512) stripes;
  check_bool "aligned" true (Sizing.is_erase_block_aligned ~aa_stripes:stripes p);
  check_bool "hdd default unaligned is detected" true
    (not (Sizing.is_erase_block_aligned ~aa_stripes:100 p))

let test_sizing_smr () =
  let p = Wafl_device.Profile.default_smr in
  let no_azcs = Sizing.smr_stripes ~azcs:false p in
  check_int "2 zones" (2 * 16384) no_azcs;
  let azcs = Sizing.smr_stripes ~azcs:true p in
  (* alignment is in data blocks: a multiple of 63 (one checksum block is
     interleaved per 63 data blocks on the device) *)
  check_bool "azcs multiple of 63" true (Sizing.is_azcs_aligned ~aa_stripes:azcs);
  check_bool "covers zones" true (azcs >= no_azcs);
  let odd = { p with Wafl_device.Profile.zone_blocks = 1000 } in
  let s = Sizing.smr_stripes ~azcs:true odd in
  check_bool "rounded to 63" true (s mod 63 = 0 && s >= 2000);
  (* the historical HDD default is NOT azcs-aligned (4096 mod 63 = 1) *)
  check_bool "hdd default unaligned" true
    (not (Sizing.is_azcs_aligned ~aa_stripes:Sizing.default_hdd_stripes))

let test_sizing_memory () =
  check_int "1M AAs ~ 8MiB heap" (8 * 1024 * 1024)
    (Sizing.memory_bytes_for_heap ~aa_count:(1024 * 1024))

(* --- Score --- *)

let test_score_computation () =
  let mf = Metafile.create ~blocks:4096 () in
  (* allocate all of stripe 0 (AA 0 vbns: device d offset 0..127) *)
  Metafile.allocate mf 0;
  Metafile.allocate mf 1024;
  check_int "aa0 score" 510 (Score.score_of_aa ~base:0 raid_topo mf 0);
  check_int "aa1 untouched" 512 (Score.score_of_aa ~base:0 raid_topo mf 1)

let test_score_all () =
  let mf = Metafile.create ~blocks:4096 () in
  let scores = Score.all_scores raid_topo mf in
  check_int "count" 8 (Array.length scores);
  Array.iter (fun s -> check_int "empty fs" 512 s) scores

let test_score_delta_batching () =
  let d = Score.create_delta raid_topo in
  check_bool "starts empty" true (Score.is_empty d);
  Score.note_alloc d ~vbn:0;
  Score.note_alloc d ~vbn:1;
  Score.note_free d ~vbn:2;
  (* all three vbns are in AA 0: net -1 *)
  let changes = Score.fold d ~init:[] ~f:(fun acc ~aa ~change -> (aa, change) :: acc) in
  Alcotest.(check (list (pair int int))) "net" [ (0, -1) ] changes

let test_score_delta_cancels () =
  let d = Score.create_delta raid_topo in
  Score.note_alloc d ~vbn:0;
  Score.note_free d ~vbn:1;
  check_bool "cancel to empty" true (Score.is_empty d)

let test_score_delta_apply () =
  let scores = [| 512; 512; 512; 512; 512; 512; 512; 512 |] in
  let d = Score.create_delta raid_topo in
  Score.note_alloc d ~vbn:0;
  (* AA 1 vbn: stripe 128+ *)
  Score.note_free d ~vbn:128;
  (* free without prior alloc: scores would exceed capacity; use an alloc'd one *)
  Score.note_alloc d ~vbn:129;
  Score.note_alloc d ~vbn:130;
  let updates = ref [] in
  Score.apply d scores ~f:(fun aa score -> updates := (aa, score) :: !updates);
  check_int "aa0 dropped" 511 scores.(0);
  check_int "aa1 net -1" 511 scores.(1);
  check_int "two updates" 2 (List.length !updates);
  Alcotest.(check (list (pair int int)))
    "newest-touched AA first" [ (1, 511); (0, 511) ] (List.rev !updates);
  check_bool "cleared" true (Score.is_empty d)

let prop_score_matches_metafile =
  QCheck.Test.make ~name:"delta-maintained scores match recomputation" ~count:50
    QCheck.(list (int_bound 4095))
    (fun vbns ->
      let mf = Metafile.create ~blocks:4096 () in
      let scores = Score.all_scores raid_topo mf in
      let d = Score.create_delta raid_topo in
      let allocated = Hashtbl.create 64 in
      List.iter
        (fun vbn ->
          if not (Hashtbl.mem allocated vbn) then begin
            Metafile.allocate mf vbn;
            Score.note_alloc d ~vbn;
            Hashtbl.replace allocated vbn ()
          end)
        vbns;
      Score.apply d scores ~f:(fun _ _ -> ());
      scores = Score.all_scores raid_topo mf)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_raid_topo_partition; prop_score_matches_metafile ]
  in
  Alcotest.run "wafl_aa"
    [
      ( "topology-raid",
        [
          Alcotest.test_case "counts" `Quick test_raid_topo_counts;
          Alcotest.test_case "ragged" `Quick test_raid_topo_ragged;
          Alcotest.test_case "extents" `Quick test_raid_topo_extents;
          Alcotest.test_case "aa_of_vbn" `Quick test_raid_topo_aa_of_vbn;
          Alcotest.test_case "iteration order" `Quick test_raid_topo_iter_order;
        ] );
      ( "topology-agnostic",
        [
          Alcotest.test_case "basics" `Quick test_agn_topo;
          Alcotest.test_case "sequential iter" `Quick test_agn_iter_sequential;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "defaults" `Quick test_sizing_defaults;
          Alcotest.test_case "ssd" `Quick test_sizing_ssd;
          Alcotest.test_case "smr" `Quick test_sizing_smr;
          Alcotest.test_case "memory" `Quick test_sizing_memory;
        ] );
      ( "score",
        [
          Alcotest.test_case "computation" `Quick test_score_computation;
          Alcotest.test_case "all scores" `Quick test_score_all;
          Alcotest.test_case "delta batching" `Quick test_score_delta_batching;
          Alcotest.test_case "delta cancels" `Quick test_score_delta_cancels;
          Alcotest.test_case "delta apply" `Quick test_score_delta_apply;
        ]
        @ qsuite );
    ]
