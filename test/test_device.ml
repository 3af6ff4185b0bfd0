(* Tests for Wafl_device: ftl, azcs, smr, hdd, object_store. *)

open Wafl_device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Ftl --- *)

(* One flush's pages, written as a list, passed as the whole-array slice
   the batch calls take. *)
let write_batch ?stream f pages =
  let a = Array.of_list pages in
  Ftl.write_batch ?stream f a ~pos:0 ~len:(Array.length a)

let trim_batch f pages =
  let a = Array.of_list pages in
  Ftl.trim_batch f a ~pos:0 ~len:(Array.length a)

let small_ssd () =
  (* 64-page erase blocks so tests stay small. *)
  let profile = { Profile.default_ssd with Profile.erase_block_blocks = 64; overprovision = 0.0 } in
  Ftl.create ~profile ~logical_blocks:1024 ()

let test_ftl_fresh_write_wa_one () =
  let f = small_ssd () in
  write_batch f (List.init 64 Fun.id);
  let s = Ftl.stats f in
  check_int "host" 64 s.Ftl.host_pages_written;
  check_int "device" 64 s.Ftl.device_pages_written;
  Alcotest.(check (float 1e-9)) "WA=1 for full erase block" 1.0 (Ftl.write_amplification f)

let test_ftl_partial_overwrite_relocates () =
  let f = small_ssd () in
  (* Fill erase block 0 (it closes once fully appended), then rewrite half
     of it: reopening relocates the 32 still-live pages outside the batch. *)
  write_batch f (List.init 64 Fun.id);
  check_bool "closed after full append" false (Ftl.is_open f ~eb:0);
  write_batch f (List.init 32 Fun.id);
  let s = Ftl.stats f in
  check_int "host" 96 s.Ftl.host_pages_written;
  check_int "device" (64 + 32 + 32) s.Ftl.device_pages_written;
  check_int "relocated" 32 s.Ftl.relocated_pages;
  check_int "erases" 2 s.Ftl.erases;
  check_bool "half-written block stays open" true (Ftl.is_open f ~eb:0)

let test_ftl_batch_split_invariant () =
  (* Splitting one pass over a region across several batches costs the same
     as one batch, as long as the batches write into dead space (the WAFL
     pattern: only free blocks are written).  Pre-fill the odd pages, then
     write the even pages of the same span in one batch vs eight. *)
  let run chunks =
    let f = small_ssd () in
    write_batch f (List.init 512 (fun i -> (i * 2) + 1));
    Ftl.reset_stats f;
    List.iter (fun batch -> write_batch f batch) chunks;
    (Ftl.stats f).Ftl.relocated_pages
  in
  let one = run [ List.init 128 (fun i -> i * 2) ] in
  let split = run (List.init 8 (fun k -> List.init 16 (fun i -> ((k * 16) + i) * 2))) in
  check_bool
    (Printf.sprintf "split ~ one-shot (%d vs %d)" split one)
    true
    (one > 0 && abs (split - one) <= one / 4)

let test_ftl_trim_avoids_relocation () =
  let f = small_ssd () in
  write_batch f (List.init 64 Fun.id);
  (* Trim the half we are not going to rewrite, then rewrite the other half. *)
  trim_batch f (List.init 32 (fun i -> 32 + i));
  write_batch f (List.init 32 Fun.id);
  let s = Ftl.stats f in
  check_int "nothing relocated" 0 s.Ftl.relocated_pages;
  check_int "trimmed" 32 s.Ftl.trimmed_pages

let test_ftl_small_aa_vs_large_aa () =
  (* The §3.2.2 mechanism: writing regions smaller than an erase block
     amplifies; writing whole erase-block multiples does not. *)
  let run ~chunk =
    let f = small_ssd () in
    (* Pre-fill the device half-full with even pages live. *)
    write_batch f (List.init 512 (fun i -> i * 2));
    Ftl.reset_stats f;
    (* Rewrite 256 pages in chunks of [chunk] consecutive odd/even pages. *)
    let rec go start remaining =
      if remaining > 0 then begin
        let batch = List.init chunk (fun i -> start + i) in
        write_batch f batch;
        go (start + chunk) (remaining - chunk)
      end
    in
    go 0 256;
    Ftl.write_amplification f
  in
  let wa_small = run ~chunk:16 and wa_large = run ~chunk:64 in
  check_bool "small chunks amplify more" true (wa_small > wa_large)

let test_ftl_overprovision_absorbs () =
  let profile0 = { Profile.default_ssd with Profile.erase_block_blocks = 64; overprovision = 0.0 } in
  let profile28 = { profile0 with Profile.overprovision = 0.28 } in
  let run profile =
    let f = Ftl.create ~profile ~logical_blocks:1024 () in
    write_batch f (List.init 1024 Fun.id);
    Ftl.reset_stats f;
    write_batch f (List.init 64 (fun i -> i * 16));
    Ftl.write_amplification f
  in
  check_bool "more OP, less WA" true (run profile28 < run profile0)

let test_ftl_live_tracking () =
  let f = small_ssd () in
  write_batch f [ 0; 1; 2 ];
  check_int "live" 3 (Ftl.live_pages_in f ~start:0 ~len:64);
  Ftl.trim f 1;
  check_int "after trim" 2 (Ftl.live_pages_in f ~start:0 ~len:64);
  Ftl.trim f 1;
  check_int "double trim harmless" 2 (Ftl.live_pages_in f ~start:0 ~len:64)

let prop_ftl_wa_at_least_one =
  QCheck.Test.make ~name:"write amplification >= 1" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (list_of_size Gen.(1 -- 30) (int_bound 1023)))
    (fun batches ->
      let f = small_ssd () in
      List.iter (fun batch -> write_batch f batch) batches;
      Ftl.write_amplification f >= 1.0 -. 1e-9)

(* --- Ftl multi-stream placement --- *)

let multi_ssd () =
  let profile = { Profile.default_ssd with Profile.erase_block_blocks = 64; overprovision = 0.0 } in
  Ftl.create ~profile ~open_blocks:8 ~streams:4 ~logical_blocks:4096 ()

let test_ftl_stream_budget () =
  let f = multi_ssd () in
  check_int "streams" 4 (Ftl.streams f);
  check_int "budget split evenly" 2 (Ftl.stream_capacity f);
  (* Partial writes keep the blocks open; a third open under the same
     stream must evict that stream's LRU, not grow past the budget. *)
  write_batch ~stream:0 f [ 0 ];
  write_batch ~stream:0 f [ 64 ];
  check_int "two open" 2 (Ftl.open_blocks_of_stream f 0);
  write_batch ~stream:0 f [ 128 ];
  check_int "budget enforced" 2 (Ftl.open_blocks_of_stream f 0);
  check_bool "oldest evicted" false (Ftl.is_open f ~eb:0);
  check_bool "newest open" true (Ftl.is_open f ~eb:2);
  check_bool "open block tagged with its stream" true
    (Ftl.stream_of_open f ~eb:2 = Some 0)

let test_ftl_stream_lru_recency () =
  let f = multi_ssd () in
  write_batch ~stream:0 f [ 0 ];
  write_batch ~stream:0 f [ 64 ];
  (* appending to eb0 again makes eb1 the stream's LRU *)
  write_batch ~stream:0 f [ 1 ];
  write_batch ~stream:0 f [ 128 ];
  check_bool "recently appended survives" true (Ftl.is_open f ~eb:0);
  check_bool "least recent evicted" false (Ftl.is_open f ~eb:1)

let test_ftl_stream_isolation () =
  let f = multi_ssd () in
  write_batch ~stream:0 f [ 0 ];
  write_batch ~stream:0 f [ 64 ];
  (* churning stream 1 through many fresh blocks must never evict
     stream 0's open blocks — that cross-eviction is exactly what
     segregation exists to stop *)
  for k = 2 to 9 do
    write_batch ~stream:1 f [ k * 64 ]
  done;
  check_int "stream 1 capped at its own budget" 2 (Ftl.open_blocks_of_stream f 1);
  check_bool "stream 0 block 0 untouched" true (Ftl.is_open f ~eb:0);
  check_bool "stream 0 block 1 untouched" true (Ftl.is_open f ~eb:1);
  check_bool "still owned by stream 0" true (Ftl.stream_of_open f ~eb:0 = Some 0)

let test_ftl_stream_stats_attribution () =
  let f = multi_ssd () in
  write_batch ~stream:0 f (List.init 64 Fun.id);
  write_batch ~stream:2 f (List.init 64 (fun i -> 64 + i));
  let s0 = Ftl.stream_stats f 0
  and s1 = Ftl.stream_stats f 1
  and s2 = Ftl.stream_stats f 2 in
  check_int "stream 0 host pages" 64 s0.Ftl.host_pages_written;
  check_int "stream 2 host pages" 64 s2.Ftl.host_pages_written;
  check_int "idle stream untouched" 0 s1.Ftl.host_pages_written;
  check_int "erase charged to the opening stream" 1 s0.Ftl.erases;
  let all = Ftl.stats f in
  check_int "streams sum to device total" all.Ftl.host_pages_written
    (s0.Ftl.host_pages_written + s1.Ftl.host_pages_written + s2.Ftl.host_pages_written
    + (Ftl.stream_stats f 3).Ftl.host_pages_written)

(* Hot rewrites interleaved with cold sequential fill: in one stream the
   cold opens evict the hot blocks between touches (every reopen re-pays
   the relocation of their live pages); in two streams the hot blocks
   stay open and append for free. *)
let test_ftl_segregation_reduces_wa () =
  let run streams =
    let profile =
      { Profile.default_ssd with Profile.erase_block_blocks = 64; overprovision = 0.0 }
    in
    let f = Ftl.create ~profile ~open_blocks:4 ~streams ~logical_blocks:8192 () in
    write_batch f (List.init 128 Fun.id);
    Ftl.reset_stats f;
    let cold_stream = min 1 (streams - 1) in
    let cold = ref 256 in
    for round = 0 to 15 do
      write_batch ~stream:0 f [ ((round mod 2) * 64) + (round mod 64) ];
      for _ = 1 to 4 do
        write_batch ~stream:cold_stream f (List.init 32 (fun i -> !cold + i));
        cold := !cold + 64
      done
    done;
    Ftl.write_amplification f
  in
  let wa_mixed = run 1 and wa_split = run 2 in
  check_bool
    (Printf.sprintf "two streams beat one (%.3f vs %.3f)" wa_split wa_mixed)
    true (wa_split < wa_mixed)

let test_ftl_trim_open_block () =
  let f = small_ssd () in
  write_batch f (List.init 32 Fun.id);
  check_bool "partially filled block is open" true (Ftl.is_open f ~eb:0);
  trim_batch f (List.init 16 Fun.id);
  check_bool "trim leaves it open" true (Ftl.is_open f ~eb:0);
  check_int "live after trim" 16 (Ftl.live_pages_in f ~start:0 ~len:64);
  (* rewriting the trimmed pages appends into the still-open block *)
  write_batch f (List.init 16 Fun.id);
  check_int "no relocation" 0 (Ftl.stats f).Ftl.relocated_pages;
  check_int "trims tallied" 16 (Ftl.stats f).Ftl.trimmed_pages

let test_ftl_wear_counters () =
  let f = small_ssd () in
  write_batch f (List.init 64 Fun.id);
  write_batch f (List.init 64 Fun.id);
  write_batch f (List.init 64 (fun i -> 64 + i));
  check_int "rewritten block wore twice" 2 (Ftl.wear_of_eb f ~eb:0);
  check_int "fresh block wore once" 1 (Ftl.wear_of_eb f ~eb:1);
  check_int "max over a span" 2 (Ftl.max_wear_in f ~start:0 ~len:128);
  let lo, hi = Ftl.wear_spread f in
  check_int "untouched blocks at zero" 0 lo;
  check_int "spread max" 2 hi;
  Ftl.reset_stats f;
  check_int "wear is physical state, survives reset" 2 (Ftl.wear_of_eb f ~eb:0);
  check_int "erase counter is a statistic, resets" 0 (Ftl.stats f).Ftl.erases

(* The CP hands the FTL each batch sorted and duplicate-free.  The same
   pages shuffled, each repeated once, must leave the device exactly as
   the presorted batches do: stats, live pages and wear. *)
let test_ftl_presorted_matches_shuffled () =
  let rng = Random.State.make [| 17 |] in
  let sorted_ftl = small_ssd () and shuffled_ftl = small_ssd () in
  for _ = 1 to 20 do
    let start = Random.State.int rng 768 in
    let pages =
      List.sort_uniq Int.compare
        (List.init 96 (fun _ -> start + Random.State.int rng 256))
    in
    write_batch sorted_ftl pages;
    let keyed = List.map (fun p -> (Random.State.bits rng, p)) (pages @ pages) in
    write_batch shuffled_ftl (List.map snd (List.sort compare keyed))
  done;
  let state f = (Ftl.stats f, Ftl.live_pages_in f ~start:0 ~len:1024, Ftl.wear_spread f) in
  check_bool "identical stats, live pages and wear" true (state sorted_ftl = state shuffled_ftl);
  check_bool "the batches relocated" true ((Ftl.stats sorted_ftl).Ftl.relocated_pages > 0)

let test_ftl_service_time () =
  let f = small_ssd () in
  let before = Ftl.stats f in
  write_batch f (List.init 64 Fun.id);
  let delta = Ftl.diff_stats ~after:(Ftl.stats f) ~before in
  let t = Ftl.service_time_us f ~stats_delta:delta in
  (* 64 programs + 1 erase *)
  Alcotest.(check (float 1e-6)) "cost" ((64.0 *. 200.0) +. 2000.0) t

(* --- Azcs --- *)

let test_azcs_region_math () =
  check_int "region of 0" 0 (Azcs.region_of_block 0);
  check_int "region of 63" 0 (Azcs.region_of_block 63);
  check_int "region of 64" 1 (Azcs.region_of_block 64);
  check_int "checksum block r0" 63 (Azcs.checksum_block ~region:0);
  check_bool "63 is checksum" true (Azcs.is_checksum_block 63);
  check_bool "62 is data" false (Azcs.is_checksum_block 62);
  check_bool "aligned 128" true (Azcs.is_aligned 128);
  check_bool "unaligned 100" false (Azcs.is_aligned 100);
  check_int "capacity of one region" 63 (Azcs.data_capacity 64);
  check_int "capacity of 1.5 regions" (63 + 32) (Azcs.data_capacity 96)

let test_azcs_sequential_stream () =
  let tr = Azcs.create_tracker () in
  (* Write both regions fully, in order: both checksum writes sequential. *)
  let emitted = ref [] in
  for b = 0 to 127 do
    if not (Azcs.is_checksum_block b) then emitted := Azcs.write tr b @ !emitted
  done;
  emitted := Azcs.finish tr @ !emitted;
  let s = Azcs.summary tr in
  check_int "data writes" 126 s.Azcs.data_writes;
  check_int "sequential" 2 s.Azcs.sequential_checksum_writes;
  check_int "random" 0 s.Azcs.random_checksum_writes;
  check_int "emitted count" 2 (List.length !emitted)

let test_azcs_split_region_random () =
  let tr = Azcs.create_tracker () in
  (* Write half of region 0, jump to region 1 (an AA boundary mid-region),
     come back later: region 0's checksum write is random. *)
  for b = 0 to 30 do
    ignore (Azcs.write tr b)
  done;
  let emitted = Azcs.write tr 64 in
  check_int "leaving region 0 emits" 1 (List.length emitted);
  (match emitted with
  | [ cw ] ->
    check_int "checksum block" 63 cw.Azcs.block;
    check_bool "random" false cw.Azcs.sequential
  | _ -> Alcotest.fail "expected one checksum write");
  ignore (Azcs.finish tr);
  let s = Azcs.summary tr in
  (* region 0 (split by the jump) and region 1 (only one block written)
     both close partially -> two random checksum writes *)
  check_int "two random" 2 s.Azcs.random_checksum_writes

let test_azcs_out_of_order_within_region () =
  let tr = Azcs.create_tracker () in
  ignore (Azcs.write tr 5);
  ignore (Azcs.write tr 3);
  let ws = Azcs.finish tr in
  match ws with
  | [ cw ] -> check_bool "not sequential" false cw.Azcs.sequential
  | _ -> Alcotest.fail "expected one checksum write"

let test_azcs_device_span () =
  check_int "span of 63 data" 64 (Azcs.device_span_of_data 63);
  check_int "span of 64 data" 66 (Azcs.device_span_of_data 64);
  check_int "span of 126" 128 (Azcs.device_span_of_data 126);
  check_int "position of 0" 0 (Azcs.device_position_of_data 0);
  check_int "position of 62" 62 (Azcs.device_position_of_data 62);
  (* data 63 skips the checksum block at device position 63 *)
  check_int "position of 63" 64 (Azcs.device_position_of_data 63);
  check_bool "data positions never land on checksum blocks" true
    (let ok = ref true in
     for d = 0 to 10_000 do
       if Azcs.is_checksum_block (Azcs.device_position_of_data d) then ok := false
     done;
     !ok);
  check_bool "data alignment" true (Azcs.is_data_aligned 126);
  check_bool "4096 not data aligned" false (Azcs.is_data_aligned 4096)

let test_azcs_rejects_checksum_in_stream () =
  let tr = Azcs.create_tracker () in
  Alcotest.check_raises "checksum position"
    (Invalid_argument "Azcs.write: checksum block in data stream") (fun () ->
      ignore (Azcs.write tr 63))

(* --- Smr --- *)

let small_smr () =
  let profile = { Profile.default_smr with Profile.zone_blocks = 100 } in
  Smr.create ~profile ~blocks:1000 ()

let test_smr_sequential_cheap () =
  let s = small_smr () in
  Smr.write_stream s (List.init 100 Fun.id);
  let st = Smr.stats s in
  check_int "blocks" 100 st.Smr.blocks_written;
  (* first write repositions, the rest are appends *)
  check_int "sequential" 99 st.Smr.sequential_writes;
  check_int "random" 1 st.Smr.random_writes;
  check_int "no rmw" 0 st.Smr.rmw_blocks

let test_smr_mid_zone_rewrite_rmw () =
  let s = small_smr () in
  Smr.write_stream s (List.init 50 Fun.id);
  (* Rewriting position 10 when the write pointer is 50 must RMW 40 blocks. *)
  Smr.write s 10;
  let st = Smr.stats s in
  check_int "rmw tail" 40 st.Smr.rmw_blocks

let test_smr_backward_pass_single_rmw () =
  let s = small_smr () in
  Smr.write_stream s (List.init 80 Fun.id);
  (* jump back to 10 and continue 10,11,12: one RMW pass, charged once *)
  Smr.write s 10;
  let after_first = (Smr.stats s).Smr.rmw_blocks in
  Smr.write s 11;
  Smr.write s 12;
  check_int "no further RMW while continuing" after_first (Smr.stats s).Smr.rmw_blocks;
  check_int "one pass = 70 blocks" 70 after_first

let test_smr_zone_isolation () =
  let s = small_smr () in
  Smr.write_stream s (List.init 50 Fun.id);
  (* Position 150 lives in zone 1, untouched: plain (random) append. *)
  Smr.write s 150;
  let st = Smr.stats s in
  check_int "no rmw across zones" 0 st.Smr.rmw_blocks;
  check_int "zone1 wp" 51 (Smr.write_pointer s ~zone:1)

let test_smr_reset_zone () =
  let s = small_smr () in
  Smr.write_stream s (List.init 100 Fun.id);
  Smr.reset_zone s ~zone:0;
  check_int "wp reset" 0 (Smr.write_pointer s ~zone:0);
  Smr.write s 0;
  check_int "no rmw after reset" 0 (Smr.stats s).Smr.rmw_blocks

let test_smr_cost_ordering () =
  (* Sequential stream must be cheaper than the same blocks random. *)
  let seq = small_smr () in
  Smr.write_stream seq (List.init 100 Fun.id);
  let rnd = small_smr () in
  let r = Wafl_util.Rng.create ~seed:4 in
  let order = Array.init 100 Fun.id in
  Wafl_util.Rng.shuffle r order;
  Smr.write_stream rnd (Array.to_list order);
  check_bool "sequential cheaper" true ((Smr.stats seq).Smr.total_us < (Smr.stats rnd).Smr.total_us)

(* --- Hdd --- *)

let test_hdd_costs () =
  let p = Profile.default_hdd in
  let one_chain = Hdd.write_cost_us p ~chains:1 ~blocks:100 in
  let many_chains = Hdd.write_cost_us p ~chains:100 ~blocks:100 in
  check_bool "chaining pays" true (one_chain < many_chains);
  Alcotest.(check (float 1e-6)) "one chain cost" (8000.0 +. (100.0 *. 20.0)) one_chain;
  Alcotest.(check (float 1e-6)) "random reads" (2.0 *. 8020.0) (Hdd.random_read_cost_us p ~ios:2)

let test_hdd_bandwidth () =
  let p = Profile.default_hdd in
  Alcotest.(check (float 1e-6)) "50k blocks/s" 50_000.0 (Hdd.streaming_bandwidth_blocks_per_s p)

(* --- Object_store --- *)

let test_object_store_puts () =
  let o = Object_store.create () in
  (* default object size 1024 blocks *)
  Object_store.write_batch o [ 0; 1; 2; 1023 ];
  check_int "one put" 1 (Object_store.stats o).Object_store.puts;
  Object_store.write_batch o [ 1024 ];
  check_int "second object" 2 (Object_store.stats o).Object_store.puts;
  check_int "blocks" 5 (Object_store.stats o).Object_store.blocks_written

let test_object_store_scattered_vs_colocated () =
  let o = Object_store.create () in
  let colocated = List.init 100 Fun.id in
  let scattered = List.init 100 (fun i -> i * 1024) in
  check_int "colocated: 1 object" 1 (Object_store.put_count_for o colocated);
  check_int "scattered: 100 objects" 100 (Object_store.put_count_for o scattered)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_ftl_wa_at_least_one ] in
  Alcotest.run "wafl_device"
    [
      ( "ftl",
        [
          Alcotest.test_case "fresh write WA=1" `Quick test_ftl_fresh_write_wa_one;
          Alcotest.test_case "partial overwrite relocates" `Quick
            test_ftl_partial_overwrite_relocates;
          Alcotest.test_case "batch-split invariant" `Quick test_ftl_batch_split_invariant;
          Alcotest.test_case "trim avoids relocation" `Quick test_ftl_trim_avoids_relocation;
          Alcotest.test_case "small vs large AA" `Quick test_ftl_small_aa_vs_large_aa;
          Alcotest.test_case "overprovision absorbs" `Quick test_ftl_overprovision_absorbs;
          Alcotest.test_case "live tracking" `Quick test_ftl_live_tracking;
          Alcotest.test_case "stream budget" `Quick test_ftl_stream_budget;
          Alcotest.test_case "stream LRU recency" `Quick test_ftl_stream_lru_recency;
          Alcotest.test_case "stream isolation" `Quick test_ftl_stream_isolation;
          Alcotest.test_case "stream stats attribution" `Quick
            test_ftl_stream_stats_attribution;
          Alcotest.test_case "segregation reduces WA" `Quick
            test_ftl_segregation_reduces_wa;
          Alcotest.test_case "trim in open block" `Quick test_ftl_trim_open_block;
          Alcotest.test_case "wear counters" `Quick test_ftl_wear_counters;
          Alcotest.test_case "service time" `Quick test_ftl_service_time;
          Alcotest.test_case "presorted matches shuffled" `Quick
            test_ftl_presorted_matches_shuffled;
        ]
        @ qsuite );
      ( "azcs",
        [
          Alcotest.test_case "region math" `Quick test_azcs_region_math;
          Alcotest.test_case "sequential stream" `Quick test_azcs_sequential_stream;
          Alcotest.test_case "split region random" `Quick test_azcs_split_region_random;
          Alcotest.test_case "out of order" `Quick test_azcs_out_of_order_within_region;
          Alcotest.test_case "device span" `Quick test_azcs_device_span;
          Alcotest.test_case "rejects checksum block" `Quick test_azcs_rejects_checksum_in_stream;
        ] );
      ( "smr",
        [
          Alcotest.test_case "sequential cheap" `Quick test_smr_sequential_cheap;
          Alcotest.test_case "mid-zone RMW" `Quick test_smr_mid_zone_rewrite_rmw;
          Alcotest.test_case "backward pass single RMW" `Quick test_smr_backward_pass_single_rmw;
          Alcotest.test_case "zone isolation" `Quick test_smr_zone_isolation;
          Alcotest.test_case "reset zone" `Quick test_smr_reset_zone;
          Alcotest.test_case "cost ordering" `Quick test_smr_cost_ordering;
        ] );
      ( "hdd",
        [
          Alcotest.test_case "costs" `Quick test_hdd_costs;
          Alcotest.test_case "bandwidth" `Quick test_hdd_bandwidth;
        ] );
      ( "object_store",
        [
          Alcotest.test_case "puts" `Quick test_object_store_puts;
          Alcotest.test_case "scattered vs colocated" `Quick
            test_object_store_scattered_vs_colocated;
        ] );
    ]
