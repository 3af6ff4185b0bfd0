(* Tests for Wafl_aacache: max_heap, hbps, topaa, cache. *)

open Wafl_aacache
module Pagestore = Wafl_bitmap.Pagestore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Max_heap --- *)

let test_heap_basic () =
  let h = Max_heap.create ~n_aas:10 in
  check_int "empty" 0 (Max_heap.size h);
  Max_heap.insert h ~aa:3 ~score:50;
  Max_heap.insert h ~aa:7 ~score:90;
  Max_heap.insert h ~aa:1 ~score:70;
  check_int "size" 3 (Max_heap.size h);
  Alcotest.(check (option (pair int int))) "best" (Some (7, 90)) (Max_heap.peek_best h);
  check_bool "invariant" true (Max_heap.check_invariant h)

let test_heap_of_scores () =
  let h = Max_heap.of_scores [| 5; 90; 13; 42; 90 |] in
  check_int "size" 5 (Max_heap.size h);
  (match Max_heap.peek_best h with
  | Some (_, s) -> check_int "best score" 90 s
  | None -> Alcotest.fail "empty");
  check_bool "invariant" true (Max_heap.check_invariant h)

let test_heap_extract_order () =
  let h = Max_heap.of_scores [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let rec drain acc = match Max_heap.extract_best h with
    | Some (_, s) -> drain (s :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "descending" [ 9; 6; 5; 4; 3; 2; 1; 1 ] (drain [])

let test_heap_update () =
  let h = Max_heap.of_scores [| 10; 20; 30 |] in
  Max_heap.update h ~aa:0 ~score:100;
  Alcotest.(check (option (pair int int))) "promoted" (Some (0, 100)) (Max_heap.peek_best h);
  Max_heap.update h ~aa:0 ~score:5;
  Alcotest.(check (option (pair int int))) "demoted" (Some (2, 30)) (Max_heap.peek_best h);
  check_bool "invariant" true (Max_heap.check_invariant h)

let test_heap_remove () =
  let h = Max_heap.of_scores [| 10; 20; 30; 40 |] in
  check_int "removed score" 40 (Max_heap.remove h ~aa:3);
  check_bool "gone" false (Max_heap.mem h 3);
  Alcotest.(check (option (pair int int))) "new best" (Some (2, 30)) (Max_heap.peek_best h);
  Alcotest.check_raises "double remove" (Invalid_argument "Max_heap.remove: AA not present")
    (fun () -> ignore (Max_heap.remove h ~aa:3))

let test_heap_reinsert_after_extract () =
  let h = Max_heap.of_scores [| 10; 20 |] in
  (match Max_heap.extract_best h with
  | Some (aa, _) -> Max_heap.insert h ~aa ~score:5
  | None -> Alcotest.fail "empty");
  check_int "size back" 2 (Max_heap.size h);
  Alcotest.(check (option (pair int int))) "other best" (Some (0, 10)) (Max_heap.peek_best h)

let test_heap_apply_updates () =
  let h = Max_heap.of_scores [| 10; 20; 30 |] in
  ignore (Max_heap.extract_best h);
  (* CP-boundary batch: updates present AAs, re-inserts the extracted one *)
  Max_heap.apply_update h ~aa:0 ~score:99;
  Max_heap.apply_update h ~aa:2 ~score:1;
  check_int "size" 3 (Max_heap.size h);
  Alcotest.(check (option (pair int int))) "best" (Some (0, 99)) (Max_heap.peek_best h);
  check_bool "invariant" true (Max_heap.check_invariant h)

let test_heap_top_k () =
  let h = Max_heap.of_scores [| 3; 1; 4; 1; 5 |] in
  let top = Max_heap.top_k h 3 in
  Alcotest.(check (list (pair int int))) "top3" [ (4, 5); (2, 4); (0, 3) ] top;
  check_int "heap untouched" 5 (Max_heap.size h);
  check_bool "invariant" true (Max_heap.check_invariant h);
  check_int "top_k over size" 5 (List.length (Max_heap.top_k h 100))

let prop_heap_invariant_random_ops =
  QCheck.Test.make ~name:"heap invariant under random op sequences" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 1000)))
    (fun ops ->
      let h = Max_heap.create ~n_aas:20 in
      List.iter
        (fun (aa, score) ->
          if Max_heap.mem h aa then begin
            if score mod 3 = 0 then ignore (Max_heap.remove h ~aa)
            else Max_heap.update h ~aa ~score
          end
          else Max_heap.insert h ~aa ~score)
        ops;
      Max_heap.check_invariant h)

let prop_heap_extract_is_max =
  QCheck.Test.make ~name:"extract_best returns the maximum" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 10_000))
    (fun scores ->
      let arr = Array.of_list scores in
      let h = Max_heap.of_scores arr in
      match Max_heap.extract_best h with
      | Some (_, s) -> s = Array.fold_left max 0 arr
      | None -> false)

(* --- Hbps --- *)

let mk_hbps ?(bin_width = 1024) ?(capacity = 1000) scores =
  Hbps.create ~bin_width ~capacity ~max_score:32768 ~scores ()

let test_hbps_create () =
  let scores = Array.init 100 (fun i -> i * 300) in
  let h = mk_hbps scores in
  check_int "n_aas" 100 (Hbps.n_aas h);
  check_int "bins (32k/1k + 1 for value 32768)" 33 (Hbps.bins h);
  check_bool "invariant" true (Hbps.check_invariant h);
  check_int "all listed (capacity 1000 > 100)" 0 (Hbps.count h);
  (* list starts empty; replenish fills it *)
  Hbps.replenish h;
  check_int "listed after replenish" 100 (Hbps.count h);
  check_bool "complete" true (Hbps.check_complete h)

let test_hbps_pick_best_in_top_bin () =
  let scores = [| 100; 31_900; 15_000; 31_800; 500 |] in
  let h = mk_hbps scores in
  Hbps.replenish h;
  match Hbps.pick_best h with
  | Some (aa, s) ->
    check_bool "from top bin" true (aa = 1 || aa = 3);
    check_bool "score right" true (s = scores.(aa))
  | None -> Alcotest.fail "empty"

let test_hbps_error_margin () =
  let h = mk_hbps [| 0 |] in
  Alcotest.(check (float 1e-9)) "3.125%" 0.03125 (Hbps.error_margin h)

let test_hbps_take_best_distinct () =
  let scores = [| 32_000; 31_000; 30_000 |] in
  let h = mk_hbps scores in
  Hbps.replenish h;
  let a = Hbps.take_best h and b = Hbps.take_best h and c = Hbps.take_best h in
  let ids = List.filter_map (Option.map fst) [ a; b; c ] in
  check_int "three taken" 3 (List.length (List.sort_uniq compare ids));
  check_bool "now empty" true (Hbps.take_best h = None)

let test_hbps_update_moves_bins () =
  let scores = [| 32_000; 100 |] in
  let h = mk_hbps scores in
  Hbps.replenish h;
  Hbps.update h ~aa:0 ~score:50;
  check_bool "invariant" true (Hbps.check_invariant h);
  (* AA 1 (score 100) should now beat AA 0 (score 50)? both in bin 0 -
     within-bin order is unspecified, but pick must come from bin 0 *)
  match Hbps.pick_best h with
  | Some (_, s) -> check_bool "low bin" true (s <= 1023)
  | None -> Alcotest.fail "empty"

let test_hbps_promotion_inserts () =
  let scores = Array.make 5 100 in
  let h = mk_hbps scores in
  Hbps.replenish h;
  Hbps.update h ~aa:3 ~score:32_000;
  (match Hbps.pick_best h with
  | Some (aa, s) ->
    check_int "promoted AA" 3 aa;
    check_int "promoted score" 32_000 s
  | None -> Alcotest.fail "empty");
  check_bool "invariant" true (Hbps.check_invariant h)

let test_hbps_eviction_when_full () =
  (* capacity 4, six AAs; the best four should be listed *)
  let scores = [| 1000; 2000; 3000; 4000; 5000; 6000 |] in
  let h = mk_hbps ~bin_width:1000 ~capacity:4 scores in
  Hbps.replenish h;
  check_int "at capacity" 4 (Hbps.count h);
  let listed = List.map fst (Hbps.to_list h) in
  List.iter
    (fun aa -> check_bool (Printf.sprintf "aa%d listed" aa) true (List.mem aa listed))
    [ 2; 3; 4; 5 ];
  (* promote an unlisted AA above everything: must evict the lowest listed *)
  Hbps.update h ~aa:0 ~score:31_000;
  check_bool "promoted now listed" true (Hbps.mem_list h ~aa:0);
  check_int "still at capacity" 4 (Hbps.count h);
  check_bool "invariant" true (Hbps.check_invariant h)

let test_hbps_unqualified_insert_skipped () =
  let scores = [| 10_000; 11_000; 12_000; 13_000 |] in
  let h = mk_hbps ~bin_width:1000 ~capacity:3 scores in
  Hbps.replenish h;
  check_int "full" 3 (Hbps.count h);
  (* AA 0 rises but stays below the lowest listed bin: not inserted *)
  Hbps.update h ~aa:0 ~score:10_500;
  check_bool "still unlisted" false (Hbps.mem_list h ~aa:0);
  check_bool "invariant" true (Hbps.check_invariant h)

let test_hbps_stale_detection () =
  let scores = [| 5000; 6000; 7000 |] in
  let h = mk_hbps ~bin_width:1000 ~capacity:2 scores in
  Hbps.replenish h;
  check_bool "fresh" false (Hbps.is_stale h);
  (* Unlisted AA 0 gets freed up beyond the listed bins... it will be
     inserted (evicting), so not stale. Instead: drain the list. *)
  ignore (Hbps.take_best h);
  ignore (Hbps.take_best h);
  (* histogram still says bin 7 is populated; the list is empty -> stale *)
  check_bool "stale after drain" true (Hbps.is_stale h);
  check_bool "needs replenish" true (Hbps.needs_replenish h);
  Hbps.replenish h;
  check_bool "fresh again" false (Hbps.is_stale h);
  check_int "refilled" 2 (Hbps.count h)

let test_hbps_replenish_excluded () =
  let scores = [| 32_000; 31_000; 30_000 |] in
  let h = mk_hbps scores in
  Hbps.replenish ~excluded:(fun aa -> aa = 0) h;
  check_bool "excluded stays out" false (Hbps.mem_list h ~aa:0);
  check_int "others in" 2 (Hbps.count h)

let test_hbps_histogram_exact () =
  let scores = [| 0; 1023; 1024; 32_768 |] in
  let h = mk_hbps scores in
  check_int "bin0" 2 (Hbps.histogram_count h ~bin:0);
  check_int "bin1" 1 (Hbps.histogram_count h ~bin:1);
  check_int "bin32 (max value)" 1 (Hbps.histogram_count h ~bin:32)

(* The paper's guarantee: pick_best is within one bin width of the true
   maximum whenever the cache is not stale. *)
let prop_hbps_error_bound =
  QCheck.Test.make ~name:"pick_best within bin_width of true max (fresh cache)" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 32_768))
    (fun scores ->
      let arr = Array.of_list scores in
      let h = mk_hbps ~capacity:50 arr in
      Hbps.replenish h;
      match Hbps.pick_best h with
      | Some (_, s) ->
        let true_max = Array.fold_left max 0 arr in
        s > true_max - 1024
      | None -> false)

let prop_hbps_invariant_under_updates =
  QCheck.Test.make ~name:"hbps invariant under random updates" ~count:100
    QCheck.(list (pair (int_bound 49) (int_bound 32_768)))
    (fun updates ->
      let scores = Array.init 50 (fun i -> (i * 653) mod 32_769) in
      let h = mk_hbps ~capacity:10 scores in
      Hbps.replenish h;
      List.iter (fun (aa, s) -> Hbps.update h ~aa ~score:s) updates;
      Hbps.check_invariant h)

let prop_hbps_error_bound_after_updates_with_replenish =
  QCheck.Test.make ~name:"error bound restored by replenish after updates" ~count:100
    QCheck.(list (pair (int_bound 49) (int_bound 32_768)))
    (fun updates ->
      let scores = Array.init 50 (fun i -> (i * 653) mod 32_769) in
      let h = mk_hbps ~capacity:10 scores in
      Hbps.replenish h;
      List.iter (fun (aa, s) -> Hbps.update h ~aa ~score:s) updates;
      if Hbps.needs_replenish h then Hbps.replenish h;
      if Hbps.is_stale h then Hbps.replenish h;
      match Hbps.pick_best h with
      | Some (_, s) ->
        let true_max = ref 0 in
        for aa = 0 to 49 do
          true_max := max !true_max (Hbps.score h ~aa)
        done;
        s > !true_max - 1024
      | None -> (* all AAs could have score... list can't be empty with 50 AAs *) false)

let prop_hbps_complete_after_replenish =
  QCheck.Test.make ~name:"bins above lowest listed are complete after replenish" ~count:100
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 32_768))
    (fun scores ->
      let arr = Array.of_list scores in
      let h = mk_hbps ~capacity:20 arr in
      Hbps.replenish h;
      Hbps.check_complete h)

(* --- Topaa --- *)

let test_topaa_raid_aware_roundtrip () =
  let heap = Max_heap.of_scores (Array.init 2000 (fun i -> (i * 37) mod 4096)) in
  let block = Topaa.save_raid_aware heap in
  check_int "block size" 4096 (Pagestore.length_bytes block);
  match Topaa.load_raid_aware block with
  | Ok entries ->
    check_int "capacity entries" Topaa.raid_aware_capacity (List.length entries);
    let expected = Max_heap.top_k heap Topaa.raid_aware_capacity in
    Alcotest.(check (list (pair int int))) "matches top_k" expected entries
  | Error e -> Alcotest.failf "load failed: %a" Topaa.pp_error e

let test_topaa_raid_aware_small_heap () =
  let heap = Max_heap.of_scores [| 5; 10; 3 |] in
  let block = Topaa.save_raid_aware heap in
  match Topaa.load_raid_aware block with
  | Ok entries ->
    Alcotest.(check (list (pair int int))) "all three" [ (1, 10); (0, 5); (2, 3) ] entries
  | Error e -> Alcotest.failf "load failed: %a" Topaa.pp_error e

let test_topaa_corruption_detected () =
  let heap = Max_heap.of_scores [| 5; 10; 3 |] in
  let block = Topaa.save_raid_aware heap in
  Pagestore.set_byte block 100 (Pagestore.byte block 100 lxor 0xff);
  (match Topaa.load_raid_aware block with
  | Error Topaa.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Topaa.pp_error e
  | Ok _ -> Alcotest.fail "corruption not detected");
  (* wrong magic *)
  let block2 = Pagestore.of_bytes (Bytes.make 4096 '\000') in
  match Topaa.load_raid_aware block2 with
  | Error Topaa.Bad_magic -> ()
  | _ -> Alcotest.fail "magic not checked"

let test_topaa_hbps_roundtrip () =
  let scores = Array.init 500 (fun i -> (i * 97) mod 32_769) in
  let h = Hbps.create ~capacity:100 ~max_score:32_768 ~scores () in
  Hbps.replenish h;
  let histogram, list_page = Topaa.save_hbps h in
  check_int "histogram page" 4096 (Pagestore.length_bytes histogram);
  check_int "list page" 4096 (Pagestore.length_bytes list_page);
  match Topaa.load_hbps (histogram, list_page) with
  | Ok seed ->
    check_int "bin width" 1024 seed.Topaa.bin_width;
    check_int "bins" (Hbps.bins h) (Array.length seed.Topaa.bin_counts);
    Array.iteri
      (fun b c -> check_int "bin count" (Hbps.histogram_count h ~bin:b) c)
      seed.Topaa.bin_counts;
    check_int "entries" (Hbps.count h) (List.length seed.Topaa.entries);
    (* stored order preserved; ids match *)
    let expected_ids = List.map fst (Hbps.to_list h) in
    Alcotest.(check (list int)) "ids" expected_ids (List.map fst seed.Topaa.entries);
    (* seeded scores within one bin of the real score *)
    List.iter
      (fun (aa, approx) ->
        let real = Hbps.score h ~aa in
        check_bool "approx within bin" true (approx <= real && real - approx < 1024))
      (Topaa.seed_scores seed)
  | Error e -> Alcotest.failf "load failed: %a" Topaa.pp_error e

let test_topaa_hbps_corruption () =
  let scores = Array.init 50 (fun i -> i * 100) in
  let h = Hbps.create ~capacity:10 ~max_score:32_768 ~scores () in
  Hbps.replenish h;
  let histogram, list_page = Topaa.save_hbps h in
  Pagestore.set_byte list_page 20 (Char.code 'x');
  match Topaa.load_hbps (histogram, list_page) with
  | Error Topaa.Bad_checksum -> ()
  | _ -> Alcotest.fail "list page corruption not detected"

(* --- Cache --- *)

let test_cache_dispatch () =
  let aware = Cache.raid_aware ~scores:[| 1; 2; 3 |] () in
  let agnostic = Cache.raid_agnostic ~max_score:32768 ~scores:[| 1; 2; 3 |] () in
  (match Cache.backend aware with
  | Cache.Raid_aware _ -> ()
  | Cache.Raid_agnostic _ -> Alcotest.fail "expected heap backend");
  (match Cache.backend agnostic with
  | Cache.Raid_agnostic _ -> ()
  | Cache.Raid_aware _ -> Alcotest.fail "expected HBPS backend")

let test_cache_take_and_update () =
  let c = Cache.raid_aware ~scores:[| 10; 30; 20 |] () in
  (match Cache.take_best c with
  | Some (aa, s) ->
    check_int "best aa" 1 aa;
    check_int "best score" 30 s
  | None -> Alcotest.fail "empty");
  Cache.cp_update c (fun file -> file 1 0);
  (match Cache.peek_best_score c with
  | Some s -> check_int "next best" 20 s
  | None -> Alcotest.fail "empty");
  let stats = Cache.stats c in
  check_int "picks" 1 stats.Cache.picks;
  check_int "updates" 1 stats.Cache.updates;
  check_bool "work counted" true (stats.Cache.work > 0)

let test_cache_hbps_auto_replenish () =
  let scores = Array.init 100 (fun i -> (i * 331) mod 32_769) in
  let c = Cache.raid_agnostic ~capacity:5 ~max_score:32_768 ~scores () in
  (* drain the (initially empty, then replenished) list via cp_update *)
  Cache.cp_update c ignore;
  check_bool "replenished on first cp" true ((Cache.stats c).Cache.replenishes >= 1);
  let rec drain n = if n > 0 then begin ignore (Cache.take_best c); drain (n - 1) end in
  drain 5;
  Cache.cp_update c ignore;
  check_bool "take works after auto-replenish" true (Cache.take_best c <> None)

(* Every HBPS pick's tracked score error must respect the §3.3 guarantee:
   with the list replenished, a pick comes from the best populated bin, so
   its deficit versus that bin's top is < bin_width/max_score = 3.125%. *)
let test_cache_hbps_score_error_bound () =
  let max_score = 32_768 in
  let bound = 1024.0 /. float_of_int max_score in
  let rng = ref 12345 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 7) mod (max_score + 1)
  in
  let scores = Array.init 4096 (fun _ -> next ()) in
  let c = Cache.raid_agnostic ~max_score ~scores () in
  Cache.cp_update c ignore (* initial replenish *);
  for _ = 1 to 50 do
    (match Cache.take_best c with
    | Some (aa, _) -> Cache.cp_update c (fun file -> file aa (next ()))
    | None -> Cache.cp_update c ignore);
    let s = Cache.stats c in
    check_bool
      (Printf.sprintf "pick error %.5f within 3.125%% bound" s.Cache.score_error_last)
      true
      (s.Cache.score_error_last <= bound)
  done;
  let s = Cache.stats c in
  check_bool "max error within bound" true (s.Cache.score_error_max <= bound);
  (* a RAID-aware cache is exact: the gauge never moves *)
  let aware = Cache.raid_aware ~scores:[| 5; 9; 1 |] () in
  ignore (Cache.take_best aware);
  check_bool "heap pick error is zero" true
    ((Cache.stats aware).Cache.score_error_max = 0.0)

let test_cache_stats_entries_and_space () =
  let c = Cache.make ~space:3 (Cache.Raid_aware (Max_heap.of_scores [| 1; 2; 3 |])) in
  check_int "space label" 3 (Cache.space c);
  check_int "entries = heap size" 3 (Cache.stats c).Cache.entries;
  ignore (Cache.take_best c);
  check_int "entries after take" 2 (Cache.stats c).Cache.entries;
  Cache.reset_stats c;
  check_int "reset picks" 0 (Cache.stats c).Cache.picks

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_invariant_random_ops;
        prop_heap_extract_is_max;
        prop_hbps_error_bound;
        prop_hbps_invariant_under_updates;
        prop_hbps_error_bound_after_updates_with_replenish;
        prop_hbps_complete_after_replenish;
      ]
  in
  Alcotest.run "wafl_aacache"
    [
      ( "max_heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "of_scores" `Quick test_heap_of_scores;
          Alcotest.test_case "extract order" `Quick test_heap_extract_order;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "remove" `Quick test_heap_remove;
          Alcotest.test_case "reinsert" `Quick test_heap_reinsert_after_extract;
          Alcotest.test_case "apply_updates" `Quick test_heap_apply_updates;
          Alcotest.test_case "top_k" `Quick test_heap_top_k;
        ] );
      ( "hbps",
        [
          Alcotest.test_case "create" `Quick test_hbps_create;
          Alcotest.test_case "pick from top bin" `Quick test_hbps_pick_best_in_top_bin;
          Alcotest.test_case "error margin" `Quick test_hbps_error_margin;
          Alcotest.test_case "take_best distinct" `Quick test_hbps_take_best_distinct;
          Alcotest.test_case "update moves bins" `Quick test_hbps_update_moves_bins;
          Alcotest.test_case "promotion inserts" `Quick test_hbps_promotion_inserts;
          Alcotest.test_case "eviction when full" `Quick test_hbps_eviction_when_full;
          Alcotest.test_case "unqualified skipped" `Quick test_hbps_unqualified_insert_skipped;
          Alcotest.test_case "stale detection" `Quick test_hbps_stale_detection;
          Alcotest.test_case "replenish excluded" `Quick test_hbps_replenish_excluded;
          Alcotest.test_case "histogram exact" `Quick test_hbps_histogram_exact;
        ] );
      ( "topaa",
        [
          Alcotest.test_case "raid-aware roundtrip" `Quick test_topaa_raid_aware_roundtrip;
          Alcotest.test_case "small heap" `Quick test_topaa_raid_aware_small_heap;
          Alcotest.test_case "corruption detected" `Quick test_topaa_corruption_detected;
          Alcotest.test_case "hbps roundtrip" `Quick test_topaa_hbps_roundtrip;
          Alcotest.test_case "hbps corruption" `Quick test_topaa_hbps_corruption;
        ] );
      ( "cache",
        [
          Alcotest.test_case "dispatch" `Quick test_cache_dispatch;
          Alcotest.test_case "take and update" `Quick test_cache_take_and_update;
          Alcotest.test_case "auto replenish" `Quick test_cache_hbps_auto_replenish;
          Alcotest.test_case "hbps score-error bound" `Quick
            test_cache_hbps_score_error_bound;
          Alcotest.test_case "stats entries and space" `Quick
            test_cache_stats_entries_and_space;
        ] );
      ( "properties", qsuite );
    ]
