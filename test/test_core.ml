(* Tests for Wafl_core: aggregate, flexvol, write allocator, CP, mount,
   cleaner — unit and integration. *)

open Wafl_core
open Wafl_bitmap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* List-returning shims over the _into allocation API: the library only
   exposes the zero-allocation array forms, but a list is easier to poke
   at in assertions. *)
let allocate_pvbns w n =
  let dst = Array.make (max 1 n) 0 in
  let got = Write_alloc.allocate_pvbns_into w ~dst n in
  Array.to_list (Array.sub dst 0 got)

let allocate_vvbns w vol n =
  let dst = Array.make (max 1 n) 0 in
  let got = Write_alloc.allocate_vvbns_into w vol ~dst n in
  Array.to_list (Array.sub dst 0 got)

(* Naive per-bit list gathers — the references the harvest kernels are
   checked against (they used to live in the library as the list-based
   allocation path). *)
let free_vbns_of_aa agg (r : Aggregate.range) aa =
  let mf = Aggregate.metafile agg in
  let acc = ref [] in
  Wafl_aa.Topology.iter_aa_vbns r.Aggregate.topology aa ~f:(fun local ->
      let pvbn = Aggregate.to_global r local in
      if not (Metafile.is_allocated mf pvbn) then acc := pvbn :: !acc);
  List.rev !acc

let free_vvbns_of_aa vol aa =
  let mf = Flexvol.metafile vol in
  let acc = ref [] in
  Wafl_aa.Topology.iter_aa_vbns (Flexvol.topology vol) aa ~f:(fun vvbn ->
      if not (Metafile.is_allocated mf vvbn) then acc := vvbn :: !acc);
  List.rev !acc

(* A small test system: 2 HDD RAID groups (4+1, 8192 blocks/device),
   AA = 512 stripes, one FlexVol. *)
let small_config ?(aggregate_policy = Config.Best_aa) ?(vol_policy = Config.Best_aa)
    ?rg_score_threshold ?(vol_blocks = 65536) ?run ?(seed = 7) () =
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ { Config.name = "vol0"; blocks = vol_blocks; aa_blocks = None; policy = vol_policy } ]
    ~aggregate_policy ?rg_score_threshold ?run ~seed ()

(* --- Aggregate --- *)

let test_aggregate_layout () =
  let fs = Fs.create (small_config ()) in
  let agg = Fs.aggregate fs in
  check_int "two ranges" 2 (Array.length (Aggregate.ranges agg));
  check_int "total" (2 * 4 * 8192) (Aggregate.total_blocks agg);
  let r0 = (Aggregate.ranges agg).(0) and r1 = (Aggregate.ranges agg).(1) in
  check_int "r0 base" 0 r0.Aggregate.base;
  check_int "r1 base" (4 * 8192) r1.Aggregate.base;
  check_int "aa count per range (8192/512)" 16 (Array.length r0.Aggregate.scores);
  check_bool "caches on" true (r0.Aggregate.cache <> None);
  (* range_of_pvbn picks the right range *)
  check_int "pvbn in r1" 1 (Aggregate.range_of_pvbn agg (4 * 8192)).Aggregate.index;
  check_int "roundtrip local" 0 (Aggregate.to_local r1 (4 * 8192))

let test_aggregate_alloc_free_cycle () =
  let fs = Fs.create (small_config ()) in
  let agg = Fs.aggregate fs in
  Aggregate.allocate agg ~pvbn:100;
  check_int "free count drops" (Aggregate.total_blocks agg - 1) (Aggregate.free_blocks agg);
  Aggregate.queue_free agg ~pvbn:100;
  check_int "still allocated until commit" (Aggregate.total_blocks agg - 1)
    (Aggregate.free_blocks agg);
  let pages, freed = Aggregate.commit_frees agg in
  check_bool "pages written" true (pages >= 1);
  Alcotest.(check (list int)) "freed list" [ 100 ] freed;
  check_int "free again" (Aggregate.total_blocks agg) (Aggregate.free_blocks agg)

(* --- Flexvol --- *)

let test_flexvol_mapping () =
  let vol =
    Flexvol.create { Config.name = "v"; blocks = 65536; aa_blocks = None; policy = Config.Best_aa }
  in
  check_int "blocks" 65536 (Flexvol.blocks vol);
  Flexvol.map_vvbn vol ~vvbn:5 ~pvbn:1234;
  Alcotest.(check (option int)) "mapped" (Some 1234) (Flexvol.pvbn_of_vvbn vol 5);
  check_int "one used" (65536 - 1) (Flexvol.free_blocks vol);
  Flexvol.queue_unmap vol ~vvbn:5;
  Alcotest.(check (option int)) "unmapped immediately" None (Flexvol.pvbn_of_vvbn vol 5);
  check_int "vvbn still held" (65536 - 1) (Flexvol.free_blocks vol);
  let pages = Flexvol.commit_frees vol in
  check_bool "flushed" true (pages >= 1);
  check_int "vvbn released" 65536 (Flexvol.free_blocks vol)

let test_flexvol_files () =
  let vol =
    Flexvol.create { Config.name = "v"; blocks = 1000; aa_blocks = None; policy = Config.Best_aa }
  in
  check_bool "no old block" true (Flexvol.write_file vol ~file:1 ~offset:0 ~vvbn:10 = None);
  Alcotest.(check (option int)) "overwrite returns old" (Some 10)
    (Flexvol.write_file vol ~file:1 ~offset:0 ~vvbn:20);
  Alcotest.(check (option int)) "read" (Some 20) (Flexvol.read_file vol ~file:1 ~offset:0);
  check_int "blocks in file" 1 (Flexvol.file_blocks vol ~file:1)

let test_flexvol_dense_block_map () =
  let vol =
    Flexvol.create { Config.name = "v"; blocks = 1000; aa_blocks = None; policy = Config.Best_aa }
  in
  let read offset = Flexvol.read_file vol ~file:2 ~offset in
  Alcotest.(check (option int)) "unknown file reads a hole" None (read 0);
  check_int "unknown file is empty" 0 (Flexvol.file_blocks vol ~file:2);
  Alcotest.(check (option int)) "fresh write" None (Flexvol.write_file vol ~file:2 ~offset:3 ~vvbn:30);
  Alcotest.(check (option int)) "read back" (Some 30) (read 3);
  Alcotest.(check (option int)) "hole below" None (read 2);
  Alcotest.(check (option int)) "past the end" None (read 1_000_000);
  Alcotest.(check (option int)) "overwrite returns old" (Some 30)
    (Flexvol.write_file vol ~file:2 ~offset:3 ~vvbn:31);
  (* grow far past the current length: earlier entries survive, the gap is
     holes, and only mapped offsets count *)
  ignore (Flexvol.write_file vol ~file:2 ~offset:5000 ~vvbn:50);
  for offset = 0 to 99 do
    ignore (Flexvol.write_file vol ~file:2 ~offset:(100 + offset) ~vvbn:(offset + 100))
  done;
  Alcotest.(check (option int)) "kept across growth" (Some 31) (read 3);
  Alcotest.(check (option int)) "grown entry" (Some 50) (read 5000);
  Alcotest.(check (option int)) "gap is a hole" None (read 4999);
  Alcotest.(check (option int)) "sequential entry" (Some 150) (read 150);
  check_int "mapped blocks" 102 (Flexvol.file_blocks vol ~file:2);
  check_int "other file untouched" 0 (Flexvol.file_blocks vol ~file:1);
  Alcotest.check_raises "negative write offset"
    (Invalid_argument "Flexvol.write_file: negative offset") (fun () ->
      ignore (Flexvol.write_file vol ~file:2 ~offset:(-1) ~vvbn:7));
  Alcotest.check_raises "negative read offset"
    (Invalid_argument "Flexvol.read_file: negative offset") (fun () ->
      ignore (Flexvol.read_file vol ~file:2 ~offset:(-1)));
  check_int "rejected write changed nothing" 102 (Flexvol.file_blocks vol ~file:2)

let test_stage_write_rejects_negative_offset () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  Alcotest.check_raises "negative offset" (Invalid_argument "Fs.stage_write: negative offset")
    (fun () -> Fs.stage_write fs ~vol ~file:1 ~offset:(-4));
  check_int "nothing staged" 0 (Fs.staged_count fs)

let test_flexvol_remap () =
  let vol =
    Flexvol.create { Config.name = "v"; blocks = 1000; aa_blocks = None; policy = Config.Best_aa }
  in
  Flexvol.map_vvbn vol ~vvbn:7 ~pvbn:111;
  check_int "remap returns old" 111 (Flexvol.remap_vvbn vol ~vvbn:7 ~pvbn:222);
  Alcotest.(check (option int)) "new home" (Some 222) (Flexvol.pvbn_of_vvbn vol 7);
  check_int "vvbn usage unchanged" (1000 - 1) (Flexvol.free_blocks vol)

(* --- Write allocator --- *)

let test_walloc_allocates_n () =
  let fs = Fs.create (small_config ()) in
  let w = Fs.write_alloc fs in
  let blocks = allocate_pvbns w 1000 in
  check_int "got 1000" 1000 (List.length blocks);
  check_int "no duplicates" 1000 (List.length (List.sort_uniq Int.compare blocks));
  (* all marked allocated *)
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  List.iter (fun pvbn -> check_bool "allocated" true (Metafile.is_allocated mf pvbn)) blocks

let test_walloc_spreads_over_ranges () =
  let fs = Fs.create (small_config ()) in
  let w = Fs.write_alloc fs in
  let blocks = allocate_pvbns w 2000 in
  let agg = Fs.aggregate fs in
  let in_r0 = List.filter (fun p -> (Aggregate.range_of_pvbn agg p).Aggregate.index = 0) blocks in
  let in_r1 = List.filter (fun p -> (Aggregate.range_of_pvbn agg p).Aggregate.index = 1) blocks in
  check_bool "both ranges used" true (in_r0 <> [] && in_r1 <> []);
  (* equal emptiness -> roughly equal split *)
  let d = abs (List.length in_r0 - List.length in_r1) in
  check_bool "balanced" true (d < 400)

let test_walloc_best_aa_consumes_emptiest () =
  let fs = Fs.create (small_config ()) in
  let agg = Fs.aggregate fs in
  let w = Fs.write_alloc fs in
  (* Dirty AA 0 of range 0 heavily so it is no longer the best. *)
  let r0 = (Aggregate.ranges agg).(0) in
  Wafl_aa.Topology.iter_aa_vbns r0.Aggregate.topology 0 ~f:(fun local ->
      if local mod 2 = 0 then Aggregate.allocate agg ~pvbn:(Aggregate.to_global r0 local));
  Write_alloc.cp_finish w;
  (* Allocate a small burst: chosen AAs should be full-score ones, i.e.
     the traced mean score of taken AAs stays at capacity. *)
  let before = Write_alloc.aas_taken w in
  let _ = allocate_pvbns w 100 in
  let taken = Write_alloc.aas_taken w - before in
  check_bool "AAs were taken" true (taken > 0);
  let mean_score =
    float_of_int (Write_alloc.score_sum_taken w) /. float_of_int (Write_alloc.aas_taken w)
  in
  check_bool "mean taken score = full AA (2048)" true (mean_score > 2000.0)

let test_walloc_vvbns_sequential_colocated () =
  let fs = Fs.create (small_config ()) in
  let w = Fs.write_alloc fs in
  let vol = Fs.vol fs "vol0" in
  let vvbns = allocate_vvbns w vol 100 in
  check_int "got 100" 100 (List.length vvbns);
  (* empty volume + best-AA policy: strictly sequential from AA start *)
  let expected_start = List.hd vvbns in
  List.iteri (fun i v -> check_int "sequential" (expected_start + i) v) vvbns

let test_walloc_exhaustion () =
  (* tiny volume: ask for more vvbns than exist *)
  let fs = Fs.create (small_config ~vol_blocks:5000 ()) in
  let w = Fs.write_alloc fs in
  let vol = Fs.vol fs "vol0" in
  let vvbns = allocate_vvbns w vol 6000 in
  check_int "clamped to volume size" 5000 (List.length vvbns)

let test_walloc_random_policy_works () =
  let fs = Fs.create (small_config ~aggregate_policy:Config.Random_aa ~vol_policy:Config.Random_aa ()) in
  let w = Fs.write_alloc fs in
  let blocks = allocate_pvbns w 500 in
  check_int "random policy allocates" 500 (List.length blocks);
  check_int "distinct" 500 (List.length (List.sort_uniq Int.compare blocks))

let test_walloc_first_fit_policy () =
  let fs = Fs.create (small_config ~aggregate_policy:Config.First_fit ()) in
  let w = Fs.write_alloc fs in
  let blocks = allocate_pvbns w 100 in
  check_int "first fit allocates" 100 (List.length blocks)

(* --- harvest kernels vs the list-based gather --- *)

let test_harvest_matches_list_raid_aware () =
  let fs = Fs.create (small_config ()) in
  let agg = Fs.aggregate fs in
  let r0 = (Aggregate.ranges agg).(0) in
  (* fragment a few AAs with a deterministic pseudo-random pattern *)
  for aa = 0 to 3 do
    Wafl_aa.Topology.iter_aa_vbns r0.Aggregate.topology aa ~f:(fun local ->
        if (local * 2654435761) land 7 < 3 then
          Aggregate.allocate agg ~pvbn:(Aggregate.to_global r0 local))
  done;
  let dst = Array.make (Wafl_aa.Topology.full_aa_capacity r0.Aggregate.topology) 0 in
  let words = ref 0 in
  for aa = 0 to 4 do
    let n = Aggregate.harvest_free_of_aa agg r0 aa ~dst ~words in
    Alcotest.(check (list int))
      (Printf.sprintf "AA %d: harvest = list gather (stripe-major)" aa)
      (free_vbns_of_aa agg r0 aa)
      (Array.to_list (Array.sub dst 0 n))
  done;
  check_bool "words were counted" true (!words > 0)

let test_harvest_matches_list_vol () =
  let vol =
    Flexvol.create
      { Config.name = "v"; blocks = 4000; aa_blocks = Some 512; policy = Config.Best_aa }
  in
  for vvbn = 0 to 3999 do
    if (vvbn * 2654435761) land 7 < 3 then Flexvol.reserve_vvbn vol ~vvbn
  done;
  let dst = Array.make 512 0 in
  let words = ref 0 in
  (* includes the ragged final AA (4000 = 7*512 + 416) *)
  for aa = 0 to 7 do
    let n = Flexvol.harvest_free_of_aa vol aa ~dst ~words in
    Alcotest.(check (list int))
      (Printf.sprintf "AA %d: harvest = list gather (ascending)" aa)
      (free_vvbns_of_aa vol aa)
      (Array.to_list (Array.sub dst 0 n))
  done

let test_harvest_ring_no_double_handout () =
  let fs = Fs.create (small_config ()) in
  let agg = Fs.aggregate fs in
  let w = Fs.write_alloc fs in
  let first = allocate_pvbns w 200 in
  let p = List.hd first in
  Aggregate.queue_free agg ~pvbn:p;
  (* mid-CP: the queued-free block stays unusable (its bitmap bit is still
     set), even though its AA may be re-harvested *)
  let mid = allocate_pvbns w 5000 in
  check_bool "queued free not re-handed mid-CP" true (not (List.mem p mid));
  ignore (Aggregate.commit_frees agg);
  Write_alloc.cp_finish w;
  (* next CP: drain the aggregate; the freed block comes back exactly once *)
  let rest = allocate_pvbns w (Aggregate.free_blocks agg) in
  check_int "freed block re-handed exactly once" 1
    (List.length (List.filter (fun q -> q = p) rest));
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun q ->
      check_bool "no duplicate handout" false (Hashtbl.mem seen q);
      Hashtbl.replace seen q ())
    (mid @ rest)

(* The ring-served consume window: after a warm-up call fills each
   range's harvest ring (one AA = 2048 blocks), the next call allocates
   no minor-heap words. *)
let check_consume_window_zero_alloc ~run label =
  let fs = Fs.create (small_config ~run ()) in
  let w = Fs.write_alloc fs in
  let dst = Array.make 256 0 in
  let words_of consume =
    consume ();
    let before = Gc.minor_words () in
    consume ();
    Gc.minor_words () -. before
  in
  let words = words_of (fun () -> ignore (Write_alloc.allocate_pvbns_into w ~dst 256)) in
  check_bool
    (Printf.sprintf "%s: ring-served PVBN allocation is heap-allocation-free (%.0f words)"
       label words)
    true (words = 0.0);
  let vol = Fs.vol fs "vol0" in
  let words = words_of (fun () -> ignore (Write_alloc.allocate_vvbns_into w vol ~dst 256)) in
  check_bool
    (Printf.sprintf "%s: ring-served VVBN allocation is heap-allocation-free (%.0f words)"
       label words)
    true (words = 0.0)

let test_walloc_consume_allocates_nothing () =
  check_consume_window_zero_alloc ~run:Config.default_run "serial"

(* A scan pool must not put work on the consume window. *)
let test_walloc_consume_allocates_nothing_under_pool () =
  check_consume_window_zero_alloc
    ~run:{ Config.default_run with Config.jobs = 4 }
    "4-domain pool"

(* --- CP integration --- *)

let test_cp_simple_write () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  check_int "staged" 100 (Fs.staged_count fs);
  let report = Fs.run_cp fs in
  check_int "ops" 100 report.Cp.ops;
  check_int "placed" 100 report.Cp.blocks_allocated;
  check_int "no frees on first write" 0 report.Cp.pvbns_freed;
  check_int "staging drained" 0 (Fs.staged_count fs);
  check_bool "metafile pages written" true (report.Cp.agg_metafile_pages >= 1);
  (* file now readable *)
  check_int "file populated" 100 (Flexvol.file_blocks vol ~file:1);
  check_bool "device time modeled" true (report.Cp.device_time_us > 0.0)

let test_cp_overwrite_frees () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 49 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  (* overwrite the same blocks: each one frees its old vvbn + pvbn *)
  for offset = 0 to 49 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  check_int "old pvbns freed" 50 report.Cp.pvbns_freed;
  check_int "old vvbns freed" 50 report.Cp.vvbns_freed;
  (* net space use unchanged *)
  let agg = Fs.aggregate fs in
  check_int "net usage" (Aggregate.total_blocks agg - 50) (Aggregate.free_blocks agg)

let test_cp_coalesces_staged_duplicates () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  Fs.stage_write fs ~vol ~file:1 ~offset:0;
  Fs.stage_write fs ~vol ~file:1 ~offset:0;
  check_int "coalesced" 1 (Fs.staged_count fs);
  let report = Fs.run_cp fs in
  check_int "one op" 1 report.Cp.ops

let test_cp_no_double_allocation_over_many_cps () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  let r = Wafl_util.Rng.create ~seed:99 in
  for _cp = 1 to 20 do
    for _ = 1 to 200 do
      Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int r 4)
        ~offset:(Wafl_util.Rng.int r 2000)
    done;
    let report = Fs.run_cp fs in
    check_int "all placed" report.Cp.ops report.Cp.blocks_allocated
  done;
  (* consistency: every mapped vvbn has an allocated pvbn, and usage counts
     line up between volume and aggregate *)
  let agg = Fs.aggregate fs in
  let mf = Aggregate.metafile agg in
  let mapped = ref 0 in
  for vvbn = 0 to Flexvol.blocks vol - 1 do
    match Flexvol.pvbn_of_vvbn vol vvbn with
    | Some pvbn ->
      incr mapped;
      check_bool "container points at allocated block" true (Metafile.is_allocated mf pvbn)
    | None -> ()
  done;
  check_int "aggregate usage = mapped blocks"
    (Aggregate.total_blocks agg - !mapped)
    (Aggregate.free_blocks agg)

let test_cp_raid_accounting () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 2047 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  let raid_reports = List.filter (fun d -> d.Cp.media = "hdd") report.Cp.devices in
  check_int "two raid ranges" 2 (List.length raid_reports);
  let total_full = List.fold_left (fun a d -> a + d.Cp.full_stripes) 0 raid_reports in
  (* empty file system, sequential AA fill: overwhelmingly full stripes *)
  let total_partial = List.fold_left (fun a d -> a + d.Cp.partial_stripes) 0 raid_reports in
  check_bool "mostly full stripes" true (total_full > total_partial * 10);
  let tetrises = List.fold_left (fun a d -> a + d.Cp.tetrises) 0 raid_reports in
  check_bool "tetrises counted" true (tetrises > 0)

(* --- Metafile colocation: the §2.5 effect end-to-end --- *)

let test_cp_colocation_best_vs_random () =
  let run policy =
    let fs = Fs.create (small_config ~vol_policy:policy ~seed:11 ()) in
    let vol = Fs.vol fs "vol0" in
    (* age: fill 60% then overwrite randomly to fragment the vvbn space *)
    let r = Wafl_util.Rng.create ~seed:3 in
    let file_blocks = 39321 (* 60% of 65536 *) in
    for offset = 0 to file_blocks - 1 do
      Fs.stage_write fs ~vol ~file:1 ~offset
    done;
    let _ = Fs.run_cp fs in
    for _cp = 1 to 10 do
      for _ = 1 to 500 do
        Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r file_blocks)
      done;
      ignore (Fs.run_cp fs)
    done;
    (* measure: metafile pages dirtied per op over more overwrite CPs *)
    let pages = ref 0 in
    for _cp = 1 to 5 do
      for _ = 1 to 500 do
        Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r file_blocks)
      done;
      let report = Fs.run_cp fs in
      pages := !pages + report.Cp.vol_metafile_pages
    done;
    !pages
  in
  let best = run Config.Best_aa and random = run Config.Random_aa in
  check_bool
    (Printf.sprintf "best-AA dirties no more vol metafile pages (best=%d random=%d)" best random)
    true (best <= random)

(* --- Mount / TopAA --- *)

let aged_fs ?run () =
  let fs = Fs.create (small_config ?run ()) in
  let vol = Fs.vol fs "vol0" in
  let r = Wafl_util.Rng.create ~seed:5 in
  for offset = 0 to 19_999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  for _cp = 1 to 5 do
    for _ = 1 to 400 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r 20_000)
    done;
    ignore (Fs.run_cp fs)
  done;
  fs

let test_mount_with_topaa_constant_work () =
  let fs = aged_fs () in
  let image = Mount.snapshot fs in
  let _fs2, timing = Mount.mount image ~with_topaa:true in
  (* 2 ranges (1 block each) + 1 vol (2 blocks) *)
  check_int "blocks read" 4 timing.Mount.topaa_blocks_read;
  check_int "no scan" 0 timing.Mount.metafile_pages_scanned;
  check_bool "fast" true (timing.Mount.ready_us < 10_000.0)

let test_mount_without_topaa_scans () =
  let fs = aged_fs () in
  let image = Mount.snapshot fs in
  let _fs2, timing = Mount.mount image ~with_topaa:false in
  check_int "no topaa" 0 timing.Mount.topaa_blocks_read;
  check_bool "scanned pages" true (timing.Mount.metafile_pages_scanned > 0);
  check_bool "scored AAs" true (timing.Mount.aas_scored > 0)

let test_mount_paths_agree_behaviorally () =
  let fs = aged_fs () in
  let image = Mount.snapshot fs in
  let fs_a, _ = Mount.mount image ~with_topaa:true in
  let fs_b, _ = Mount.mount image ~with_topaa:false in
  (* same space state *)
  check_int "same free space"
    (Aggregate.free_blocks (Fs.aggregate fs_a))
    (Aggregate.free_blocks (Fs.aggregate fs_b));
  (* after background rebuild both allocate the same sequence *)
  let a = allocate_pvbns (Fs.write_alloc fs_a) 200 in
  let b = allocate_pvbns (Fs.write_alloc fs_b) 200 in
  Alcotest.(check (list int)) "identical allocations" a b

let test_mount_timing_scales () =
  (* the without-TopAA scan must grow with volume size; the TopAA path
     must not *)
  let ready vol_blocks with_topaa =
    let fs = Fs.create (small_config ~vol_blocks ()) in
    let image = Mount.snapshot fs in
    let _, timing = Mount.mount image ~with_topaa in
    timing.Mount.ready_us
  in
  let small_scan = ready 65536 false and big_scan = ready 524288 false in
  check_bool "scan scales with size" true (big_scan > small_scan *. 2.0);
  let small_seed = ready 65536 true and big_seed = ready 524288 true in
  check_bool "topaa flat" true (big_seed < small_seed *. 1.5)

(* --- lazy rebuild --- *)

let test_lazy_mount_matches_eager () =
  let image = Mount.snapshot (aged_fs ()) in
  let fs_eager, _ = Mount.mount image ~with_topaa:true in
  let fs_lazy, _ = Mount.mount ~lazy_rebuild:true image ~with_topaa:true in
  check_int "same free space"
    (Aggregate.free_blocks (Fs.aggregate fs_eager))
    (Aggregate.free_blocks (Fs.aggregate fs_lazy));
  (* lazy mounts leave every range stale: the seeded TopAA scores stand
     in until first touch *)
  let agg = Fs.aggregate fs_lazy in
  check_bool "ranges stale after lazy mount" true
    (Array.for_all (fun r -> not (Aggregate.range_fresh agg r)) (Aggregate.ranges agg));
  check_bool "vols stale after lazy mount" true
    (Array.for_all (fun v -> not (Flexvol.cache_fresh v)) (Fs.vols fs_lazy));
  (* allocations materialize the touched ranges and then track the eager
     mount exactly *)
  let a = allocate_pvbns (Fs.write_alloc fs_eager) 200 in
  let b = allocate_pvbns (Fs.write_alloc fs_lazy) 200 in
  Alcotest.(check (list int)) "identical pvbn allocations" a b;
  check_bool "a touched range materialized" true
    (Array.exists (fun r -> Aggregate.range_fresh agg r) (Aggregate.ranges agg));
  let va = allocate_vvbns (Fs.write_alloc fs_eager) (Fs.vol fs_eager "vol0") 200 in
  let vb = allocate_vvbns (Fs.write_alloc fs_lazy) (Fs.vol fs_lazy "vol0") 200 in
  Alcotest.(check (list int)) "identical vvbn allocations" va vb;
  check_bool "vol materialized" true (Flexvol.cache_fresh (Fs.vol fs_lazy "vol0"))

let test_lazy_deferred_scan_mount () =
  let image = Mount.snapshot (aged_fs ()) in
  let fs_eager, timing_eager = Mount.mount image ~with_topaa:false in
  let fs_lazy, timing_lazy = Mount.mount ~lazy_rebuild:true image ~with_topaa:false in
  check_int "no pages scanned at mount" 0 timing_lazy.Mount.metafile_pages_scanned;
  check_bool "ready long before the full scan would finish" true
    (timing_lazy.Mount.ready_us < timing_eager.Mount.ready_us /. 4.0);
  let a = allocate_pvbns (Fs.write_alloc fs_eager) 200 in
  let b = allocate_pvbns (Fs.write_alloc fs_lazy) 200 in
  Alcotest.(check (list int)) "identical allocations" a b

let test_iron_clean_on_lazy_mount () =
  let image = Mount.snapshot (aged_fs ()) in
  let fs, _ = Mount.mount ~lazy_rebuild:true image ~with_topaa:true in
  (* Iron materializes every stale range/vol before the drift scan, so
     the approximate seeds must not surface as findings *)
  check_int "no findings on a lazy mount" 0 (List.length (Iron.check fs));
  (* and a CP straight off the lazy mount stays consistent *)
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:2 ~offset
  done;
  let report = Fs.run_cp fs in
  check_int "all staged writes placed" 100 report.Cp.blocks_allocated;
  check_int "still clean after the CP" 0 (List.length (Iron.check fs))

(* --- anonymous vs file-mapped stores --- *)

(* The same workload, CP for CP, leaves byte-identical free-space state
   whether the stores are anonymous memory or file-mapped ([--mmap]). *)
let test_backends_identical_after_cps () =
  let fs_h = aged_fs () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wafl_test_core_mmap" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  let fs_b =
    Pagestore.with_mmap_dir dir (fun () ->
        aged_fs ~run:{ Config.default_run with Config.mmap_dir = Some dir } ())
  in
  check_bool "aggregate bitmap byte-identical" true
    (Bitmap.equal
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_h)))
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_b))));
  Array.iteri
    (fun i v ->
      check_bool
        (Printf.sprintf "vol %d bitmap byte-identical" i)
        true
        (Bitmap.equal (Metafile.snapshot (Flexvol.metafile v))
           (Metafile.snapshot (Flexvol.metafile (Fs.vols fs_b).(i)))))
    (Fs.vols fs_h);
  check_int "same free space"
    (Aggregate.free_blocks (Fs.aggregate fs_h))
    (Aggregate.free_blocks (Fs.aggregate fs_b));
  (* and the next allocations agree block for block *)
  Alcotest.(check (list int))
    "next allocations identical"
    (allocate_pvbns (Fs.write_alloc fs_h) 500)
    (allocate_pvbns (Fs.write_alloc fs_b) 500)

(* --- Snapshots --- *)

let test_snapshot_protects_blocks () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let used_before = Aggregate.free_blocks (Fs.aggregate fs) in
  let snap = Fs.create_snapshot fs ~vol in
  (* overwrite everything: with the snapshot pinning the old blocks, no
     physical space comes back *)
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  check_int "no frees while snapshot holds" 0 report.Cp.pvbns_freed;
  check_int "space grows by the overwrite" (used_before - 100)
    (Aggregate.free_blocks (Fs.aggregate fs));
  (* old data still readable through the snapshot *)
  let offset0_vvbn_now = Option.get (Flexvol.read_file vol ~file:1 ~offset:0) in
  let reads = ref 0 in
  for vvbn = 0 to Flexvol.blocks vol - 1 do
    if Flexvol.snapshot_read vol ~snapshot:snap ~vvbn <> None then incr reads
  done;
  check_int "snapshot sees its 100 blocks" 100 !reads;
  check_bool "active moved on" true
    (Flexvol.snapshot_read vol ~snapshot:snap ~vvbn:offset0_vvbn_now = None)

let test_snapshot_delete_releases () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let snap = Fs.create_snapshot fs ~vol in
  for offset = 0 to 99 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let queued = Fs.delete_snapshot fs ~vol snap in
  check_int "all overwritten blocks released" 100 queued;
  let report = Fs.run_cp fs in
  check_int "freed at next CP" 100 report.Cp.pvbns_freed;
  check_int "space fully recovered" (Aggregate.total_blocks (Fs.aggregate fs) - 100)
    (Aggregate.free_blocks (Fs.aggregate fs))

let test_snapshot_sharing_between_snapshots () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 49 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let snap_a = Fs.create_snapshot fs ~vol in
  let snap_b = Fs.create_snapshot fs ~vol in
  for offset = 0 to 49 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  (* both snapshots pin the same old blocks: deleting one frees nothing *)
  check_int "first delete frees nothing" 0 (Fs.delete_snapshot fs ~vol snap_a);
  check_int "second delete releases" 50 (Fs.delete_snapshot fs ~vol snap_b);
  let _ = Fs.run_cp fs in
  check_int "space recovered" (Aggregate.total_blocks (Fs.aggregate fs) - 50)
    (Aggregate.free_blocks (Fs.aggregate fs))

let test_snapshot_excludes_zombies () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  Fs.stage_write fs ~vol ~file:1 ~offset:0;
  let _ = Fs.run_cp fs in
  let snap_a = Fs.create_snapshot fs ~vol in
  Fs.stage_write fs ~vol ~file:1 ~offset:0;
  let _ = Fs.run_cp fs in
  (* the overwritten block is a zombie now; a new snapshot must not adopt it *)
  let snap_b = Fs.create_snapshot fs ~vol in
  check_int "zombie released with its only holder" 1 (Fs.delete_snapshot fs ~vol snap_a);
  check_int "new snapshot did not pin history" 0 (Fs.delete_snapshot fs ~vol snap_b)

let test_snapshot_survives_cleaning () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  let r = Wafl_util.Rng.create ~seed:31 in
  for offset = 0 to 9_999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let snap = Fs.create_snapshot fs ~vol in
  for _cp = 1 to 4 do
    for _ = 1 to 400 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r 10_000)
    done;
    ignore (Fs.run_cp fs)
  done;
  let _ = Cleaner.clean_fs fs ~aas_per_range:1 in
  let _ = Fs.run_cp fs in
  (* every pinned block still resolves to an allocated physical block *)
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  let checked = ref 0 in
  for vvbn = 0 to Flexvol.blocks vol - 1 do
    match Flexvol.snapshot_read vol ~snapshot:snap ~vvbn with
    | Some pvbn ->
      incr checked;
      check_bool "snapshot block intact after cleaning" true (Metafile.is_allocated mf pvbn)
    | None -> ()
  done;
  check_int "snapshot complete" 10_000 !checked

(* --- Mount fault injection --- *)

let test_mount_corrupt_topaa_falls_back () =
  let fs = aged_fs () in
  let image = Mount.snapshot fs in
  Mount.corrupt_range_topaa image 0;
  Mount.corrupt_vol_topaa image 0;
  let fs2, timing = Mount.mount image ~with_topaa:true in
  (* the corrupt blocks force a bitmap scan for those caches *)
  check_bool "fallback pages scanned" true (timing.Mount.metafile_pages_scanned > 0);
  (* the system is still fully operational *)
  let blocks = allocate_pvbns (Fs.write_alloc fs2) 100 in
  check_int "allocates after fallback" 100 (List.length blocks)

let test_mount_corrupt_costlier_than_clean () =
  let fs = aged_fs () in
  let clean = Mount.snapshot fs in
  let damaged = Mount.snapshot fs in
  Mount.corrupt_range_topaa damaged 0;
  let _, t_clean = Mount.mount ~lazy_rebuild:true clean ~with_topaa:true in
  let _, t_damaged = Mount.mount ~lazy_rebuild:true damaged ~with_topaa:true in
  check_bool "corruption costs ready time" true
    (t_damaged.Mount.ready_us > t_clean.Mount.ready_us)

let test_mount_corrupt_bounds () =
  let fs = Fs.create (small_config ()) in
  let image = Mount.snapshot fs in
  let raises name f =
    check_bool name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  raises "range index too large" (fun () -> Mount.corrupt_range_topaa image 99);
  raises "range index negative" (fun () -> Mount.corrupt_range_topaa image (-1));
  raises "vol index too large" (fun () -> Mount.corrupt_vol_topaa image 99);
  raises "vol index negative" (fun () -> Mount.corrupt_vol_topaa image (-1));
  raises "page out of range" (fun () -> Mount.tear_agg_bitmap_page image ~page:1000);
  (* in-range indices still work *)
  Mount.corrupt_range_topaa image 0;
  Mount.corrupt_vol_topaa image 0;
  Mount.tear_agg_bitmap_page image ~page:0

let test_mount_restores_namespace () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 999 do
    Fs.stage_write fs ~vol ~file:3 ~offset
  done;
  let _ = Fs.run_cp fs in
  let fs2, _ = Mount.mount (Mount.snapshot fs) ~with_topaa:true in
  let vol2 = Fs.vol fs2 "vol0" in
  let mf = Aggregate.metafile (Fs.aggregate fs2) in
  for offset = 0 to 999 do
    match Flexvol.read_file vol2 ~file:3 ~offset with
    | None -> Alcotest.fail "file block lost across mount"
    | Some vvbn ->
      let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol2 vvbn) in
      check_bool "mapped block allocated" true (Metafile.is_allocated mf pvbn)
  done;
  (* the two systems agree block for block *)
  check_bool "identical mapping" true
    (Flexvol.read_file vol ~file:3 ~offset:17 = Flexvol.read_file vol2 ~file:3 ~offset:17)

(* Every (file, offset) -> vvbn entry of every volume survives the image:
   several files, holes, overwrites, and a snapshot-held zombie. *)
let test_mount_preserves_every_mapping () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 1499 do
    Fs.stage_write fs ~vol ~file:1 ~offset;
    if offset mod 3 = 0 then Fs.stage_write fs ~vol ~file:7 ~offset:(offset * 2)
  done;
  ignore (Fs.run_cp fs);
  ignore (Flexvol.create_snapshot vol);
  for offset = 0 to 299 do
    Fs.stage_write fs ~vol ~file:1 ~offset:(offset * 5)
  done;
  ignore (Fs.run_cp fs);
  let mappings v =
    List.concat_map
      (fun file ->
        List.init 3000 (fun offset -> (file, offset, Flexvol.read_file v ~file ~offset)))
      [ 1; 7; 9 ]
  in
  let fs2, _ = Mount.mount (Mount.snapshot fs) ~with_topaa:true in
  let vol2 = Fs.vol fs2 "vol0" in
  check_bool "every mapping identical" true (mappings vol = mappings vol2);
  List.iter
    (fun file ->
      check_int "file blocks" (Flexvol.file_blocks vol ~file) (Flexvol.file_blocks vol2 ~file))
    [ 1; 7; 9 ];
  check_int "file 7 blocks" 500 (Flexvol.file_blocks vol2 ~file:7)

(* A lazy TopAA mount runs no background rebuild and leaves the restored
   scores at the empty-volume values; they must be stamped stale so the
   first touch rescores them, or the first CP's score update overflows an
   AA. *)
let test_topaa_mount_without_rebuild_runs_cps () =
  let fs =
    Fs.create
      (Config.make ~vols:[ Config.default_vol ~name:"v" ~blocks:65536 ] ~seed:1 ())
  in
  let vol = Fs.vol fs "v" and rng = Wafl_util.Rng.create ~seed:1 in
  for offset = 0 to 19_999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  ignore (Fs.run_cp fs);
  for _ = 1 to 10 do
    for _ = 1 to 1000 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int rng 20_000)
    done;
    ignore (Fs.run_cp fs)
  done;
  let fs', _ = Mount.mount ~lazy_rebuild:true (Mount.snapshot fs) ~with_topaa:true in
  let vol' = Fs.vol fs' "v" in
  for _ = 1 to 3 do
    for _ = 1 to 1000 do
      Fs.stage_write fs' ~vol:vol' ~file:1 ~offset:(Wafl_util.Rng.int rng 20_000)
    done;
    ignore (Fs.run_cp fs')
  done;
  check_int "iron clean after the CPs" 0 (List.length (Iron.check fs'))

(* A CP can free blocks in a range it never allocates from.  After a lazy
   mount that range is still stale at cp_finish, so its frees must not be
   applied to its not-yet-exact scores. *)
let test_stale_range_frees_after_mount () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 39_999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  ignore (Fs.run_cp fs);
  let fs', _ = Mount.mount ~lazy_rebuild:true (Mount.snapshot fs) ~with_topaa:true in
  let vol' = Fs.vol fs' "vol0" and agg = Fs.aggregate fs' in
  for k = 0 to 199 do
    Fs.stage_write fs' ~vol:vol' ~file:1 ~offset:(k * 199);
    ignore (Fs.run_cp fs')
  done;
  check_bool "a range freed into was never touched" true
    (Array.exists (fun r -> not (Aggregate.range_fresh agg r)) (Aggregate.ranges agg));
  check_int "iron clean once every range materializes" 0 (List.length (Iron.check fs'))

let test_torn_bitmap_page_repaired () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 4999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let image = Mount.snapshot fs in
  (* tear the bitmap page of some mapped block that sits in a page's second
     half (the half a torn write loses) *)
  let page_bits = Wafl_block.Units.bits_per_metafile_block in
  let victim = ref None in
  for offset = 0 to 4999 do
    if !victim = None then begin
      let vvbn = Option.get (Flexvol.read_file vol ~file:1 ~offset) in
      let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol vvbn) in
      if pvbn mod page_bits >= page_bits / 2 then victim := Some pvbn
    end
  done;
  let victim = Option.get !victim in
  Mount.tear_agg_bitmap_page image ~page:(victim / page_bits);
  let fs2, _ = Mount.mount image ~with_topaa:true in
  let findings = Iron.check fs2 in
  check_bool "torn page produces dangling refs" true
    (List.exists
       (function Iron.Dangling_container { pvbn = p; _ } -> p = victim | _ -> false)
       findings);
  (* the namespace reached NVRAM: it outranks the torn bitmap *)
  let _, repaired = Iron.repair ~authority:Iron.Container_authority fs2 in
  check_bool "repaired" true (repaired > 0);
  check_int "clean after repair" 0 (List.length (Iron.check fs2));
  let vol2 = Fs.vol fs2 "vol0" in
  let mf = Aggregate.metafile (Fs.aggregate fs2) in
  for offset = 0 to 4999 do
    let vvbn = Option.get (Flexvol.read_file vol2 ~file:1 ~offset) in
    let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol2 vvbn) in
    check_bool "every acked block allocated again" true (Metafile.is_allocated mf pvbn)
  done

(* --- Mixed-media aggregates (Flash Pool / Fabric Pool, §2.1) --- *)

let test_flash_pool_mixed_media () =
  (* SSD RAID group + HDD RAID group in one aggregate *)
  let ssd_rg =
    {
      Config.media = Config.Ssd { Wafl_device.Profile.default_ssd with
                                  Wafl_device.Profile.erase_block_blocks = 512 };
      data_devices = 2;
      parity_devices = 1;
      device_blocks = 4096;
      aa_stripes = Some 512;
    }
  in
  let hdd_rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  let config =
    Config.make ~raid_groups:[ ssd_rg; hdd_rg ]
      ~vols:[ { Config.name = "v"; blocks = 40960; aa_blocks = None; policy = Config.Best_aa } ]
      ~seed:3 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "v" in
  for offset = 0 to 4095 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  check_int "all placed" 4096 report.Cp.blocks_allocated;
  let medias = List.map (fun d -> d.Cp.media) report.Cp.devices in
  check_bool "ssd range present" true (List.mem "ssd" medias);
  check_bool "hdd range present" true (List.mem "hdd" medias);
  (* both media actually received blocks *)
  List.iter
    (fun d -> check_bool (d.Cp.media ^ " used") true (d.Cp.blocks_written > 0))
    report.Cp.devices

let test_fabric_pool_object_range () =
  (* SSD RAID group + object store span, as in Fabric Pool *)
  let ssd_rg =
    {
      Config.media = Config.Ssd { Wafl_device.Profile.default_ssd with
                                  Wafl_device.Profile.erase_block_blocks = 512 };
      data_devices = 2;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  let object_range =
    {
      Config.profile = Wafl_device.Profile.default_object_store;
      blocks = 65536;
      aa_blocks = Some 4096;
    }
  in
  let config =
    Config.make ~raid_groups:[ ssd_rg ] ~object_ranges:[ object_range ]
      ~vols:[ { Config.name = "v"; blocks = 65536; aa_blocks = None; policy = Config.Best_aa } ]
      ~seed:4 ()
  in
  let fs = Fs.create config in
  let agg = Fs.aggregate fs in
  check_int "two ranges" 2 (Array.length (Aggregate.ranges agg));
  let obj = (Aggregate.ranges agg).(1) in
  check_bool "object range is raid-agnostic" true (obj.Aggregate.geometry = None);
  (* the object range's cache is an HBPS, not a heap *)
  (match obj.Aggregate.cache with
  | Some cache ->
    check_bool "hbps cache" true
      (match Wafl_aacache.Cache.backend cache with
      | Wafl_aacache.Cache.Raid_agnostic _ -> true
      | Wafl_aacache.Cache.Raid_aware _ -> false)
  | None -> Alcotest.fail "object range should have a cache");
  let vol = Fs.vol fs "v" in
  for offset = 0 to 2047 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  check_int "placed" 2048 report.Cp.blocks_allocated;
  let object_report = List.find (fun d -> d.Cp.media = "object") report.Cp.devices in
  check_bool "object range wrote blocks" true (object_report.Cp.blocks_written > 0);
  check_bool "object device time from puts" true (object_report.Cp.device_time_us > 0.0)

(* --- RG fragmentation threshold (§3.3.1) --- *)

let test_rg_threshold_skips_fragmented_group () =
  let fs = Fs.create (small_config ~rg_score_threshold:1500 ()) in
  let agg = Fs.aggregate fs in
  let w = Fs.write_alloc fs in
  (* fragment range 0 so its best AA drops below the threshold *)
  let r0 = (Aggregate.ranges agg).(0) in
  let rng = Wafl_util.Rng.create ~seed:55 in
  let placed = ref 0 in
  while !placed < r0.Aggregate.blocks * 7 / 10 do
    let pvbn = Aggregate.to_global r0 (Wafl_util.Rng.int rng r0.Aggregate.blocks) in
    if not (Metafile.is_allocated (Aggregate.metafile agg) pvbn) then begin
      Aggregate.allocate agg ~pvbn;
      incr placed
    end
  done;
  Write_alloc.cp_finish w;
  Rebuild.request agg Rebuild.Full;
  let best0 = Wafl_aacache.Cache.peek_best_score (Option.get r0.Aggregate.cache) in
  check_bool "rig: best AA of RG0 below threshold" true (Option.get best0 < 1500);
  let blocks = allocate_pvbns w 1000 in
  let in_r0 =
    List.filter (fun p -> (Aggregate.range_of_pvbn agg p).Aggregate.index = 0) blocks
  in
  check_int "fragmented group skipped" 0 (List.length in_r0);
  check_int "demand met from the healthy group" 1000 (List.length blocks)

(* --- VVBN reservation protocol --- *)

let test_vvbn_reserve_release () =
  let vol =
    Flexvol.create { Config.name = "v"; blocks = 1000; aa_blocks = None; policy = Config.Best_aa }
  in
  Flexvol.reserve_vvbn vol ~vvbn:5;
  check_int "reserved counts as used" 999 (Flexvol.free_blocks vol);
  Alcotest.check_raises "attach requires reservation"
    (Invalid_argument "Flexvol.attach_reserved: VVBN not reserved") (fun () ->
      Flexvol.attach_reserved vol ~vvbn:6 ~pvbn:1);
  Flexvol.attach_reserved vol ~vvbn:5 ~pvbn:77;
  Alcotest.(check (option int)) "mapped" (Some 77) (Flexvol.pvbn_of_vvbn vol 5);
  (* releasing an unattached reservation *)
  Flexvol.reserve_vvbn vol ~vvbn:8;
  Flexvol.release_reserved vol ~vvbn:8;
  let _ = Flexvol.commit_frees vol in
  check_int "released back" 999 (Flexvol.free_blocks vol)

(* --- NVRAM replay --- *)

let test_nvram_replay_preserves_ops () =
  let fs = aged_fs () in
  let vol = Fs.vol fs "vol0" in
  (* acknowledged-but-uncommitted operations at crash time *)
  for offset = 50_000 to 50_099 do
    Fs.stage_write fs ~vol ~file:9 ~offset
  done;
  check_int "logged" 100 (Fs.staged_count fs);
  let image = Mount.snapshot fs in
  let fs2, timing = Mount.mount image ~with_topaa:true in
  check_int "replayed" 100 timing.Mount.ops_replayed;
  check_int "staged on the partner" 100 (Fs.staged_count fs2);
  let report = Fs.run_cp fs2 in
  check_int "first CP commits the log" 100 report.Cp.ops;
  let vol2 = Fs.vol fs2 "vol0" in
  for offset = 50_000 to 50_099 do
    check_bool "data present" true (Flexvol.read_file vol2 ~file:9 ~offset <> None)
  done

let test_nvram_replay_costs_time () =
  let fs = aged_fs () in
  let vol = Fs.vol fs "vol0" in
  let clean = Mount.snapshot fs in
  for offset = 0 to 999 do
    Fs.stage_write fs ~vol ~file:9 ~offset:(60_000 + offset)
  done;
  let logged = Mount.snapshot fs in
  let _, t_clean = Mount.mount ~lazy_rebuild:true clean ~with_topaa:true in
  let _, t_logged = Mount.mount ~lazy_rebuild:true logged ~with_topaa:true in
  check_bool "replay adds to readiness" true (t_logged.Mount.ready_us > t_clean.Mount.ready_us)

(* --- Read-path fragmentation (§2.4) --- *)

let test_read_chains_young_vs_aged () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 4095 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let young = Fs.file_read_chains fs ~vol ~file:1 in
  check_int "all blocks found" 4096 young.Wafl_block.Chain.blocks;
  (* overwrite randomly for a while: the same file now reads in many more
     chains *)
  let r = Wafl_util.Rng.create ~seed:61 in
  for _cp = 1 to 8 do
    for _ = 1 to 500 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r 4096)
    done;
    ignore (Fs.run_cp fs)
  done;
  let aged = Fs.file_read_chains fs ~vol ~file:1 in
  check_int "still all blocks" 4096 aged.Wafl_block.Chain.blocks;
  check_bool
    (Printf.sprintf "aged file needs more read I/Os (%d vs %d)" aged.Wafl_block.Chain.chains
       young.Wafl_block.Chain.chains)
    true
    (aged.Wafl_block.Chain.chains > 2 * young.Wafl_block.Chain.chains);
  check_bool "mean chain shrinks" true
    (aged.Wafl_block.Chain.mean_len < young.Wafl_block.Chain.mean_len)

(* --- Iron (online check & repair) --- *)

let test_iron_clean_system () =
  let fs = aged_fs () in
  (* an aged but healthy system: no drift, no dangling refs; the test rig
     has no internal metadata so no orphans either *)
  Alcotest.(check int) "no findings" 0 (List.length (Iron.check fs))

let test_iron_detects_and_repairs_score_drift () =
  let fs = aged_fs () in
  let r0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  (* memory scribble on a cached score *)
  r0.Aggregate.scores.(3) <- r0.Aggregate.scores.(3) + 7;
  let findings = Iron.check fs in
  check_bool "drift found" true
    (List.exists (function Iron.Range_score_drift { aa = 3; _ } -> true | _ -> false) findings);
  let _, repaired = Iron.repair fs in
  check_bool "repaired" true (repaired > 0);
  Alcotest.(check int) "clean after repair" 0 (List.length (Iron.check fs))

let test_iron_detects_dangling_container () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 9 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  (* corrupt: free a referenced physical block behind the system's back *)
  let vvbn = Option.get (Flexvol.read_file vol ~file:1 ~offset:0) in
  let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol vvbn) in
  Metafile.free (Aggregate.metafile (Fs.aggregate fs)) pvbn;
  let findings = Iron.check fs in
  check_bool "dangling found" true
    (List.exists
       (function Iron.Dangling_container { pvbn = p; _ } -> p = pvbn | _ -> false)
       findings);
  let _, repaired = Iron.repair fs in
  check_bool "repaired" true (repaired > 0);
  (* scores drifted as a result of the rogue free are also fixed *)
  Alcotest.(check int) "clean after repair" 0 (List.length (Iron.check fs))

let test_iron_reports_orphans () =
  let fs = Fs.create (small_config ()) in
  Aggregate.allocate (Fs.aggregate fs) ~pvbn:1234;
  Write_alloc.cp_finish (Fs.write_alloc fs);
  let findings = Iron.check fs in
  check_bool "orphan reported" true
    (List.exists (function Iron.Orphan_blocks { count } -> count = 1 | _ -> false) findings)

let test_iron_repairs_orphans_container_authority () =
  let fs = Fs.create (small_config ()) in
  Aggregate.allocate (Fs.aggregate fs) ~pvbn:1234;
  Aggregate.allocate (Fs.aggregate fs) ~pvbn:4321;
  Write_alloc.cp_finish (Fs.write_alloc fs);
  (* bitmap authority leaves orphans alone... *)
  let _, repaired = Iron.repair fs in
  check_int "bitmap authority: nothing to repair" 0 repaired;
  check_bool "orphans persist" true
    (List.exists (function Iron.Orphan_blocks _ -> true | _ -> false) (Iron.check fs));
  (* ...container authority frees them *)
  let findings, repaired = Iron.repair ~authority:Iron.Container_authority fs in
  check_bool "orphans were found" true
    (List.exists (function Iron.Orphan_blocks { count } -> count = 2 | _ -> false) findings);
  check_int "both freed" 2 repaired;
  check_int "clean after repair" 0 (List.length (Iron.check fs));
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  check_bool "blocks free again" false
    (Metafile.is_allocated mf 1234 || Metafile.is_allocated mf 4321)

let test_iron_repairs_dangling_container_authority () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 9 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  let vvbn = Option.get (Flexvol.read_file vol ~file:1 ~offset:4) in
  let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol vvbn) in
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  Metafile.free mf pvbn;
  let _, repaired = Iron.repair ~authority:Iron.Container_authority fs in
  check_bool "repaired" true (repaired > 0);
  (* the mapping survives and the block is allocated again — the opposite
     of Bitmap_authority, which would sever the reference *)
  check_bool "mapping intact" true (Flexvol.pvbn_of_vvbn vol vvbn = Some pvbn);
  check_bool "block re-marked" true (Metafile.is_allocated mf pvbn);
  check_int "clean after repair" 0 (List.length (Iron.check fs))

let test_iron_reports_cross_link () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  for offset = 0 to 9 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  (* corrupt: map a second virtual block onto an owned physical block *)
  let vvbn = Option.get (Flexvol.read_file vol ~file:1 ~offset:0) in
  let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol vvbn) in
  Flexvol.map_vvbn vol ~vvbn:60_000 ~pvbn;
  let findings = Iron.check fs in
  check_bool "cross-link found" true
    (List.exists (function Iron.Cross_link { pvbn = p; _ } -> p = pvbn | _ -> false) findings);
  (* cross-links cannot be auto-repaired (no way to pick the owner): both
     authorities report and leave them *)
  let _, _ = Iron.repair ~authority:Iron.Container_authority fs in
  check_bool "cross-link persists" true
    (List.exists (function Iron.Cross_link _ -> true | _ -> false) (Iron.check fs))

(* --- Cleaner --- *)

let test_cleaner_strategies () =
  let prepare () =
    let fs = Fs.create (small_config ()) in
    let vol = Fs.vol fs "vol0" in
    let r = Wafl_util.Rng.create ~seed:21 in
    for offset = 0 to 29_999 do
      Fs.stage_write fs ~vol ~file:1 ~offset
    done;
    let _ = Fs.run_cp fs in
    for _cp = 1 to 10 do
      for _ = 1 to 800 do
        Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r 30_000)
      done;
      ignore (Fs.run_cp fs)
    done;
    fs
  in
  let emptiest = Cleaner.clean_fs ~strategy:Cleaner.Emptiest_first (prepare ()) ~aas_per_range:2 in
  let fullest = Cleaner.clean_fs ~strategy:Cleaner.Fullest_first (prepare ()) ~aas_per_range:2 in
  check_int "same count cleaned" emptiest.Cleaner.aas_cleaned fullest.Cleaner.aas_cleaned;
  check_bool "emptiest relocates less" true
    (emptiest.Cleaner.blocks_relocated < fullest.Cleaner.blocks_relocated)

let test_cleaner_reclaims () =
  let fs = Fs.create (small_config ()) in
  let vol = Fs.vol fs "vol0" in
  let r = Wafl_util.Rng.create ~seed:13 in
  for offset = 0 to 9999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let _ = Fs.run_cp fs in
  for _cp = 1 to 3 do
    for _ = 1 to 300 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(Wafl_util.Rng.int r 10_000)
    done;
    ignore (Fs.run_cp fs)
  done;
  let report = Cleaner.clean_fs fs ~aas_per_range:1 in
  check_int "cleaned 2 AAs (one per range)" 2 report.Cleaner.aas_cleaned;
  let _ = Fs.run_cp fs in
  (* every file block still readable through its (possibly moved) mapping *)
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  for offset = 0 to 9999 do
    match Flexvol.read_file vol ~file:1 ~offset with
    | Some vvbn -> (
      match Flexvol.pvbn_of_vvbn vol vvbn with
      | Some pvbn -> check_bool "intact" true (Metafile.is_allocated mf pvbn)
      | None -> Alcotest.fail "lost mapping")
    | None -> Alcotest.fail "lost file block"
  done

(* --- run configuration: one term parses it, one validate checks it --- *)

let silent = Format.make_formatter (fun _ _ _ -> ()) ignore
let run_cmd term = Cmdliner.Cmd.v (Cmdliner.Cmd.info "waflsim") term

(* [args] through waflsim's own run term. *)
let parse_run args =
  match
    Cmdliner.Cmd.eval_value ~help:silent ~err:silent
      ~argv:(Array.of_list ("waflsim" :: args))
      (run_cmd Wafl_cli.Run_flags.term)
  with
  | Ok (`Ok r) -> Some r
  | _ -> None

let run_exit_code args =
  Cmdliner.Cmd.eval ~help:silent ~err:silent
    ~argv:(Array.of_list ("waflsim" :: args))
    (run_cmd Cmdliner.Term.(const ignore $ Wafl_cli.Run_flags.term))

(* POSIX words of a line as [Config.run_to_string] quotes them: bare
   words and single-quoted runs. *)
let shell_words line =
  let words = ref [] and cur = Buffer.create 16 and live = ref false in
  let flush () =
    if !live then words := Buffer.contents cur :: !words;
    Buffer.clear cur;
    live := false
  in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    (match line.[!i] with
    | ' ' -> flush ()
    | '\'' ->
      live := true;
      incr i;
      while line.[!i] <> '\'' do
        Buffer.add_char cur line.[!i];
        incr i
      done
    | '\\' ->
      live := true;
      incr i;
      Buffer.add_char cur line.[!i]
    | c ->
      live := true;
      Buffer.add_char cur c);
    incr i
  done;
  flush ();
  List.rev !words

(* mmap paths with spaces and quotes; parsing one creates it *)
let mmap_root = Filename.concat (Filename.get_temp_dir_name ()) "wafl run flags"

let gen_fault_spec =
  let open QCheck.Gen in
  let prob = map (fun k -> float_of_int k /. 1000.0) (int_bound 1000) in
  let us = map float_of_int (int_bound 100_000) in
  let small = int_bound 64 in
  let+ seed = int_bound 1_000_000
  and+ transient_p = prob
  and+ transient_burst_max = int_range 1 8
  and+ torn_p = prob
  and+ spike_p = prob
  and+ spike_us = us
  and+ retry_budget = int_bound 8
  and+ retry_backoff_us = us
  and+ bad_ranges = list_size (int_bound 2) (triple small (int_bound 8192) (int_range 1 512))
  and+ offline_after = list_size (int_bound 2) (pair small (int_bound 10_000))
  and+ degraded_after = list_size (int_bound 2) (pair small (int_bound 10_000))
  and+ rot_pages = list_size (int_bound 2) (triple small small (int_range 1 9))
  and+ lost_pages = list_size (int_bound 2) (triple small small (int_range 1 9)) in
  { Wafl_fault.Fault.seed; transient_p; transient_burst_max; torn_p; spike_p; spike_us;
    retry_budget; retry_backoff_us; bad_ranges; offline_after; degraded_after; rot_pages;
    lost_pages }

let gen_mmap_dir =
  let open QCheck.Gen in
  let name = string_size ~gen:(oneofl [ 'a'; 'b'; '7'; ' '; '\''; '-'; '_' ]) (int_range 1 8) in
  opt (map (fun n -> Filename.concat mmap_root ("d " ^ n)) name)

let gen_valid_run =
  let open QCheck.Gen in
  let+ mmap_dir = gen_mmap_dir
  and+ jobs = int_range 1 64
  and+ alloc_domains = int_range 1 64
  and+ rate = int_bound 5000
  and+ faults = opt gen_fault_spec
  and+ temp_classes = int_range 1 4
  and+ ssd_streams = int_range 1 8
  and+ wear_bias = int_bound 255 in
  let scrub_rate = if mmap_dir = None then 0 else rate in
  { Config.mmap_dir; jobs; alloc_domains; scrub_rate; faults;
    streams = { Config.default_streams with Config.temp_classes; ssd_streams; wear_bias } }

let gen_any_run =
  let open QCheck.Gen in
  let any = int_range (-1000) 1000 in
  let+ mmap_dir = oneof [ gen_mmap_dir; return (Some "") ]
  and+ jobs = any
  and+ alloc_domains = any
  and+ scrub_rate = any
  and+ temp_classes = any
  and+ ssd_streams = any
  and+ wear_bias = any in
  { Config.mmap_dir; jobs; alloc_domains; scrub_rate; faults = None;
    streams = { Config.default_streams with Config.temp_classes; ssd_streams; wear_bias } }

let print_run r = Config.run_to_string r

let prop_run_line_round_trips =
  QCheck.Test.make ~name:"the printed run line parses back to the run" ~count:200
    (QCheck.make ~print:print_run gen_valid_run)
    (fun r -> parse_run (shell_words (Config.run_to_string r)) = Some r)

let prop_validate_never_raises =
  QCheck.Test.make ~name:"validate returns, never raises" ~count:500
    (QCheck.make ~print:print_run gen_any_run)
    (fun r ->
      match Config.validate r with
      | Ok r' -> r' = r
      | Error e -> String.length (Config.run_error_to_string e) > 0
      | exception _ -> false)

(* Every bad run setting fails the command line with cmdliner's CLI-error
   code, before anything runs. *)
let test_bad_run_settings_exit_124 () =
  List.iter
    (fun args -> check_int (String.concat " " args) 124 (run_exit_code args))
    [ [ "--jobs"; "0" ]; [ "--alloc-domains"; "0" ]; [ "--fault-spec"; "bogus" ];
      [ "--temp-classes"; "9" ]; [ "--streams"; "0" ]; [ "--backend"; "heap" ];
      [ "--scrub-rate=-1" ]; [ "--scrub-rate"; "8" ]; [ "--wear-bias"; "256" ];
      [ "--mmap"; "" ] ];
  check_int "defaults are a valid run" 0 (run_exit_code []);
  check_bool "defaults parse to the default run" true (parse_run [] = Some Config.default_run)

let test_config_make_validates () =
  check_bool "Config.make applies validate" true
    (match
       Config.make ~run:{ Config.default_run with Config.scrub_rate = 8 } ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "wafl_core"
    [
      ( "aggregate",
        [
          Alcotest.test_case "layout" `Quick test_aggregate_layout;
          Alcotest.test_case "alloc/free cycle" `Quick test_aggregate_alloc_free_cycle;
        ] );
      ( "flexvol",
        [
          Alcotest.test_case "mapping" `Quick test_flexvol_mapping;
          Alcotest.test_case "files" `Quick test_flexvol_files;
          Alcotest.test_case "remap" `Quick test_flexvol_remap;
          Alcotest.test_case "dense block map" `Quick test_flexvol_dense_block_map;
          Alcotest.test_case "stage rejects negative offset" `Quick
            test_stage_write_rejects_negative_offset;
        ] );
      ( "write_alloc",
        [
          Alcotest.test_case "allocates n" `Quick test_walloc_allocates_n;
          Alcotest.test_case "spreads over ranges" `Quick test_walloc_spreads_over_ranges;
          Alcotest.test_case "best-AA picks emptiest" `Quick test_walloc_best_aa_consumes_emptiest;
          Alcotest.test_case "vvbns sequential" `Quick test_walloc_vvbns_sequential_colocated;
          Alcotest.test_case "exhaustion" `Quick test_walloc_exhaustion;
          Alcotest.test_case "random policy" `Quick test_walloc_random_policy_works;
          Alcotest.test_case "first fit policy" `Quick test_walloc_first_fit_policy;
          Alcotest.test_case "harvest = list (raid-aware)" `Quick
            test_harvest_matches_list_raid_aware;
          Alcotest.test_case "harvest = list (volume)" `Quick test_harvest_matches_list_vol;
          Alcotest.test_case "ring no double handout" `Quick test_harvest_ring_no_double_handout;
          Alcotest.test_case "consume window zero-alloc" `Quick
            test_walloc_consume_allocates_nothing;
          Alcotest.test_case "consume window under a pool" `Quick
            test_walloc_consume_allocates_nothing_under_pool;
        ] );
      ( "cp",
        [
          Alcotest.test_case "simple write" `Quick test_cp_simple_write;
          Alcotest.test_case "overwrite frees" `Quick test_cp_overwrite_frees;
          Alcotest.test_case "coalesces duplicates" `Quick test_cp_coalesces_staged_duplicates;
          Alcotest.test_case "no double allocation" `Quick
            test_cp_no_double_allocation_over_many_cps;
          Alcotest.test_case "raid accounting" `Quick test_cp_raid_accounting;
          Alcotest.test_case "colocation best vs random" `Slow test_cp_colocation_best_vs_random;
        ] );
      ( "mount",
        [
          Alcotest.test_case "topaa constant work" `Quick test_mount_with_topaa_constant_work;
          Alcotest.test_case "scan without topaa" `Quick test_mount_without_topaa_scans;
          Alcotest.test_case "paths agree" `Quick test_mount_paths_agree_behaviorally;
          Alcotest.test_case "timing scales" `Quick test_mount_timing_scales;
          Alcotest.test_case "lazy matches eager" `Quick test_lazy_mount_matches_eager;
          Alcotest.test_case "lazy deferred scan" `Quick test_lazy_deferred_scan_mount;
          Alcotest.test_case "iron clean on lazy mount" `Quick test_iron_clean_on_lazy_mount;
          Alcotest.test_case "topaa mount without rebuild runs CPs" `Quick
            test_topaa_mount_without_rebuild_runs_cps;
          Alcotest.test_case "stale range frees after mount" `Quick
            test_stale_range_frees_after_mount;
        ] );
      ( "backends",
        [
          Alcotest.test_case "identical after CPs" `Quick test_backends_identical_after_cps;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "reclaims" `Quick test_cleaner_reclaims;
          Alcotest.test_case "strategies" `Slow test_cleaner_strategies;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "protects blocks" `Quick test_snapshot_protects_blocks;
          Alcotest.test_case "delete releases" `Quick test_snapshot_delete_releases;
          Alcotest.test_case "sharing" `Quick test_snapshot_sharing_between_snapshots;
          Alcotest.test_case "excludes zombies" `Quick test_snapshot_excludes_zombies;
          Alcotest.test_case "survives cleaning" `Quick test_snapshot_survives_cleaning;
        ] );
      ( "read-path",
        [ Alcotest.test_case "young vs aged chains" `Quick test_read_chains_young_vs_aged ] );
      ( "iron",
        [
          Alcotest.test_case "clean system" `Quick test_iron_clean_system;
          Alcotest.test_case "score drift" `Quick test_iron_detects_and_repairs_score_drift;
          Alcotest.test_case "dangling container" `Quick test_iron_detects_dangling_container;
          Alcotest.test_case "orphans" `Quick test_iron_reports_orphans;
          Alcotest.test_case "orphans freed (container authority)" `Quick
            test_iron_repairs_orphans_container_authority;
          Alcotest.test_case "dangling re-marked (container authority)" `Quick
            test_iron_repairs_dangling_container_authority;
          Alcotest.test_case "cross-link reported, not repaired" `Quick
            test_iron_reports_cross_link;
        ] );
      ( "nvram",
        [
          Alcotest.test_case "replay preserves ops" `Quick test_nvram_replay_preserves_ops;
          Alcotest.test_case "replay costs time" `Quick test_nvram_replay_costs_time;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "corrupt topaa falls back" `Quick test_mount_corrupt_topaa_falls_back;
          Alcotest.test_case "corruption costs time" `Quick test_mount_corrupt_costlier_than_clean;
          Alcotest.test_case "corrupt bounds checked" `Quick test_mount_corrupt_bounds;
          Alcotest.test_case "namespace survives mount" `Quick test_mount_restores_namespace;
          Alcotest.test_case "every mapping survives mount" `Quick
            test_mount_preserves_every_mapping;
          Alcotest.test_case "torn bitmap page repaired" `Quick test_torn_bitmap_page_repaired;
        ] );
      ( "mixed-media",
        [
          Alcotest.test_case "flash pool" `Quick test_flash_pool_mixed_media;
          Alcotest.test_case "fabric pool object range" `Quick test_fabric_pool_object_range;
        ] );
      ( "run config",
        [
          QCheck_alcotest.to_alcotest prop_run_line_round_trips;
          QCheck_alcotest.to_alcotest prop_validate_never_raises;
          Alcotest.test_case "bad settings exit 124" `Quick test_bad_run_settings_exit_124;
          Alcotest.test_case "make validates" `Quick test_config_make_validates;
        ] );
      ( "policy",
        [
          Alcotest.test_case "rg threshold" `Quick test_rg_threshold_skips_fragmented_group;
          Alcotest.test_case "vvbn reserve/release" `Quick test_vvbn_reserve_release;
        ] );
    ]
