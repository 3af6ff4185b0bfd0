(* Tests for the domain-parallel scan engine: pool semantics and
   chunking, domain-safe telemetry, and — the load-bearing property —
   that every pool-driven scan (mount rebuild, cache rebuild, Iron,
   activemap commit, sharded harvest, whole CPs) produces state
   bit-identical to its serial counterpart at any domain count. *)

open Wafl_bitmap
open Wafl_aacache
open Wafl_core
open Wafl_telemetry
module Par = Wafl_par.Par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- pool semantics --- *)

let test_run_covers_all_chunks () =
  Par.with_pool ~jobs:4 (fun p ->
      check_int "jobs" 4 (Par.jobs p);
      let n = 100 in
      let slots = Array.make n 0 in
      (* chunk i owns slot i: disjoint writes, published by the pool's
         completion barrier *)
      Par.run p ~chunks:n ~f:(fun i -> slots.(i) <- slots.(i) + 1);
      Array.iteri (fun i v -> check_int (Printf.sprintf "chunk %d ran once" i) 1 v) slots)

let test_map_slot_order () =
  Par.with_pool ~jobs:3 (fun p ->
      let got = Par.map p ~chunks:50 ~f:(fun i -> i * i) in
      Array.iteri (fun i v -> check_int "slot holds f i" (i * i) v) got)

let test_exception_lowest_chunk () =
  Par.with_pool ~jobs:4 (fun p ->
      match
        Par.run p ~chunks:16 ~f:(fun i -> if i = 3 || i = 7 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure msg -> check_int "lowest failed chunk wins" 3 (int_of_string msg))

let test_nested_run_is_serial () =
  Par.with_pool ~jobs:2 (fun p ->
      let inner = Array.make 8 0 in
      (* a chunk issuing run on its own pool must not deadlock *)
      Par.run p ~chunks:2 ~f:(fun outer ->
          Par.run p ~chunks:4 ~f:(fun i -> inner.((outer * 4) + i) <- 1));
      check_int "all nested chunks ran" 8 (Array.fold_left ( + ) 0 inner))

let test_jobs1_and_shutdown_degrade () =
  let p = Par.create ~jobs:1 in
  check_int "jobs clamps to 1" 1 (Par.jobs p);
  check_bool "jobs=1 map works" true (Par.map p ~chunks:4 ~f:Fun.id = [| 0; 1; 2; 3 |]);
  Par.shutdown p;
  let q = Par.create ~jobs:4 in
  Par.shutdown q;
  Par.shutdown q;
  check_bool "map after shutdown is serial" true
    (Par.map q ~chunks:4 ~f:Fun.id = [| 0; 1; 2; 3 |])

let test_chunk_bounds_properties () =
  List.iter
    (fun total ->
      List.iter
        (fun align ->
          List.iter
            (fun chunks ->
              let bounds = Par.chunk_bounds ~total ~align ~chunks in
              let label = Printf.sprintf "total=%d align=%d chunks=%d" total align chunks in
              if total <= 0 then check_int (label ^ ": empty") 0 (Array.length bounds)
              else begin
                check_bool (label ^ ": at most chunks pieces") true
                  (Array.length bounds <= chunks && Array.length bounds >= 1);
                let pos = ref 0 in
                Array.iteri
                  (fun i (s, len) ->
                    check_int (label ^ ": contiguous") !pos s;
                    check_bool (label ^ ": non-empty") true (len > 0);
                    if i > 0 then
                      check_int (label ^ ": aligned boundary") 0 (s mod align);
                    pos := s + len)
                  bounds;
                check_int (label ^ ": covers range") total !pos;
                check_bool (label ^ ": deterministic") true
                  (bounds = Par.chunk_bounds ~total ~align ~chunks)
              end)
            [ 1; 2; 3; 7; 16 ])
        [ 1; 8; 32; 256 ])
    [ 0; 1; 5; 31; 32; 33; 1000; 4096 ]

(* Pools are cached process resources: one per (kind, size), the shared
   one-domain handle for a single domain, and scan pools never double as
   allocation pools. *)
let test_shared_pools () =
  check_bool "one domain is the serial handle" true (Par.shared Par.Scan ~jobs:1 == Par.serial);
  check_int "serial handle runs one domain" 1 (Par.jobs Par.serial);
  let scan = Par.shared Par.Scan ~jobs:3 in
  check_bool "same size, same pool" true (scan == Par.shared Par.Scan ~jobs:3);
  check_bool "allocation pool kept apart" true (scan != Par.shared Par.Alloc ~jobs:3);
  check_int "pool jobs" 3 (Par.jobs scan)

(* One path per chunked scan: a single inline chunk on one domain or
   below the threshold, [jobs * 4] chunks covering [0, n) in order
   otherwise. *)
let test_map_ranges () =
  let cover p ~min n = Par.map_ranges p ~min n ~f:(fun s len -> (s, len)) in
  check_bool "serial: one chunk" true (cover Par.serial ~min:1 100 = [| (0, 100) |]);
  check_bool "empty: one empty chunk" true (cover Par.serial ~min:1 0 = [| (0, 0) |]);
  Par.with_pool ~jobs:2 (fun p ->
      check_bool "below min: one chunk" true (cover p ~min:32 31 = [| (0, 31) |]);
      check_bool "at min: jobs * 4 chunks" true
        (cover p ~min:32 32 = Par.chunk_bounds ~total:32 ~align:1 ~chunks:8);
      check_bool "fewer items than chunks" true
        (cover p ~min:2 5 = Par.chunk_bounds ~total:5 ~align:1 ~chunks:8))

(* --- domain-safe telemetry: no lost increments under a multi-domain
       hammer --- *)

let test_telemetry_hammer () =
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      let domains = 4 and per_domain = 50_000 in
      let workers =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Telemetry.incr "hammer.count"
                done;
                Telemetry.add "hammer.add" d;
                Telemetry.max_gauge "hammer.max" (float_of_int d)))
      in
      Array.iter Domain.join workers;
      let reg = Telemetry.registry tel in
      (match Registry.find reg "hammer.count" with
      | Some (Registry.Counter c) ->
        check_int "no lost increments" (domains * per_domain) (Registry.count c)
      | _ -> Alcotest.fail "hammer.count not registered");
      (match Registry.find reg "hammer.add" with
      | Some (Registry.Counter c) -> check_int "adds summed" 6 (Registry.count c)
      | _ -> Alcotest.fail "hammer.add not registered");
      match Registry.find reg "hammer.max" with
      | Some (Registry.Gauge g) ->
        Alcotest.(check (float 0.0)) "max gauge kept the max" 3.0 (Registry.value g)
      | _ -> Alcotest.fail "hammer.max not registered")

(* --- determinism: parallel scans vs serial, bit for bit --- *)

let aged_config ?run () =
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
    ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
    ~aggregate_policy:Config.Best_aa ?run ~seed:11 ()

let jobs_run jobs = { Config.default_run with Config.jobs }

(* Overwrite pressure leaves nonuniform free space behind, so the scans
   under test have real structure to reproduce. *)
let aged_fs ?run () =
  let fs = Fs.create (aged_config ?run ()) in
  let vol = (Fs.vols fs).(0) in
  for cp = 0 to 2 do
    for i = 0 to 1023 do
      Fs.stage_write fs ~vol ~file:(cp mod 2) ~offset:i
    done;
    ignore (Fs.run_cp fs)
  done;
  fs

(* The full observable cache state: every score array plus the persisted
   TopAA bytes of every cache (heap contents / HBPS pages). *)
let cache_state fs =
  let range_state (r : Aggregate.range) =
    let topaa =
      match Option.map Cache.backend r.Aggregate.cache with
      | Some (Cache.Raid_aware heap) -> Some (Topaa.save_raid_aware heap)
      | Some (Cache.Raid_agnostic hbps) -> Some (fst (Topaa.save_hbps hbps))
      | None -> None
    in
    (Array.copy r.Aggregate.scores, topaa)
  in
  let vol_state vol =
    let hbps =
      match Option.map Cache.backend (Flexvol.cache vol) with
      | Some (Cache.Raid_agnostic h) -> Some (Topaa.save_hbps h)
      | _ -> None
    in
    (Array.copy (Flexvol.scores vol), hbps)
  in
  ( Array.map range_state (Aggregate.ranges (Fs.aggregate fs)),
    Array.map vol_state (Fs.vols fs) )

let check_bitmaps_equal label fs_a fs_b =
  check_bool (label ^ ": aggregate bitmap")
    true
    (Bitmap.equal
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_a)))
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_b))));
  Array.iteri
    (fun i va ->
      check_bool
        (Printf.sprintf "%s: vol %d bitmap" label i)
        true
        (Bitmap.equal
           (Metafile.snapshot (Flexvol.metafile va))
           (Metafile.snapshot (Flexvol.metafile (Fs.vols fs_b).(i)))))
    (Fs.vols fs_a)

let test_mount_full_scan_determinism () =
  let image = Mount.snapshot (aged_fs ()) in
  let fs_serial, timing_serial = Mount.mount image ~with_topaa:false in
  let want = cache_state fs_serial in
  List.iter
    (fun jobs ->
      let fs_par, timing_par = Mount.mount ~run:(jobs_run jobs) image ~with_topaa:false in
      check_bool
        (Printf.sprintf "jobs=%d cache state identical" jobs)
        true
        (cache_state fs_par = want);
      check_bitmaps_equal (Printf.sprintf "jobs=%d" jobs) fs_par fs_serial;
      check_int
        (Printf.sprintf "jobs=%d same pages scanned" jobs)
        timing_serial.Mount.metafile_pages_scanned
        timing_par.Mount.metafile_pages_scanned;
      check_bool
        (Printf.sprintf "jobs=%d modeled ready_us shrinks" jobs)
        true
        (timing_par.Mount.ready_us < timing_serial.Mount.ready_us))
    [ 2; 3; 8 ];
  (* an explicit jobs=1 run must model exactly the serial mount *)
  let _, timing1 = Mount.mount ~run:(jobs_run 1) image ~with_topaa:false in
  Alcotest.(check (float 0.0))
    "jobs=1 ready_us equals serial" timing_serial.Mount.ready_us timing1.Mount.ready_us

let test_rebuild_caches_determinism () =
  let fs = aged_fs () in
  Rebuild.request ~vols:(Fs.vols fs) (Fs.aggregate fs) Rebuild.Full;
  let want = cache_state fs in
  List.iter
    (fun jobs ->
      let fs = aged_fs ~run:(jobs_run jobs) () in
      Rebuild.request ~vols:(Fs.vols fs) (Fs.aggregate fs) Rebuild.Full;
      check_bool
        (Printf.sprintf "jobs=%d rebuild identical" jobs)
        true
        (cache_state fs = want))
    [ 2; 5 ]

(* Score drift injected in a range and a volume so the scans have
   findings to order. *)
let drifted_fs ?run () =
  let fs = aged_fs ?run () in
  let r = (Aggregate.ranges (Fs.aggregate fs)).(1) in
  r.Aggregate.scores.(3) <- r.Aggregate.scores.(3) + 1;
  r.Aggregate.scores.(Array.length r.Aggregate.scores - 1) <-
    r.Aggregate.scores.(Array.length r.Aggregate.scores - 1) + 2;
  let vol = (Fs.vols fs).(0) in
  let vol_scores = Flexvol.scores vol in
  vol_scores.(Array.length vol_scores - 1) <- vol_scores.(Array.length vol_scores - 1) + 1;
  fs

let test_iron_determinism () =
  let serial = Iron.check (drifted_fs ()) in
  check_bool "drift detected" true (List.length serial >= 3);
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d findings identical (content and order)" jobs)
        true
        (Iron.check (drifted_fs ~run:(jobs_run jobs) ()) = serial))
    [ 2; 4 ]

let test_activemap_parallel_commit () =
  let build () =
    let am = Activemap.create ~blocks:65536 () in
    for vbn = 0 to 65535 do
      if vbn mod 2 = 0 then Activemap.allocate am vbn
    done;
    for vbn = 0 to 65535 do
      (* a scattered, page-spanning free pattern, well over par_min_frees *)
      if vbn mod 6 = 0 then Activemap.queue_free am vbn
    done;
    am
  in
  let serial_am = build () in
  let serial = Activemap.commit serial_am in
  Par.with_pool ~jobs:4 (fun p ->
      let par_am = build () in
      let par = Activemap.commit ~pool:p par_am in
      check_bool "freed lists identical (same order)" true
        (par.Activemap.freed = serial.Activemap.freed);
      check_int "pages written identical" serial.Activemap.pages_written
        par.Activemap.pages_written;
      check_bool "maps identical" true
        (Bitmap.equal
           (Metafile.snapshot (Activemap.metafile par_am))
           (Metafile.snapshot (Activemap.metafile serial_am)));
      check_int "pending drained" 0 (Activemap.pending_free_count par_am))

let test_sharded_harvest_identical () =
  let agg = Aggregate.create (aged_config ()) in
  (* scatter allocations so the free pattern is nonuniform *)
  for pvbn = 0 to Aggregate.total_blocks agg - 1 do
    if pvbn mod 3 = 0 || pvbn mod 7 = 0 then Aggregate.allocate agg ~pvbn
  done;
  let range = (Aggregate.ranges agg).(0) in
  let capacity = Wafl_aa.Topology.full_aa_capacity range.Aggregate.topology in
  Par.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun aa ->
          let dst_serial = Array.make capacity 0 in
          let words_serial = ref 0 in
          let n_serial =
            Aggregate.harvest_free_of_aa agg range aa ~dst:dst_serial ~words:words_serial
          in
          let dst_par = Array.make capacity 0 in
          let words_par = ref 0 in
          let shards = Array.init (Par.jobs p) (fun _ -> Array.make capacity 0) in
          let n_par =
            Aggregate.harvest_free_of_aa_sharded p agg range aa ~shards ~dst:dst_par
              ~words:words_par
          in
          let label = Printf.sprintf "aa %d" aa in
          check_int (label ^ ": same count") n_serial n_par;
          check_int (label ^ ": same words read") !words_serial !words_par;
          check_bool (label ^ ": same VBNs in same order") true
            (Array.sub dst_serial 0 n_serial = Array.sub dst_par 0 n_par))
        [ 0; 1; 5 ])

let test_parallel_cp_identical () =
  let final_cp fs =
    let vol = (Fs.vols fs).(0) in
    for i = 0 to 1023 do
      (* overwrites: generates > par_min_frees queued frees *)
      Fs.stage_write fs ~vol ~file:0 ~offset:i
    done;
    Fs.run_cp fs
  in
  let fs_serial = aged_fs () in
  let serial_report = final_cp fs_serial in
  let want = cache_state fs_serial in
  let fs_par = aged_fs ~run:(jobs_run 4) () in
  let par_report = final_cp fs_par in
  check_bool "reports identical" true (par_report = serial_report);
  check_bool "cache state identical" true (cache_state fs_par = want);
  check_bitmaps_equal "parallel CP" fs_par fs_serial

(* Run [f dir] with an emptied map directory installed, so the system [f]
   builds maps fresh zero-filled files rather than remounting old ones. *)
let with_fresh_mmap_dir name f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  Pagestore.with_mmap_dir dir (fun () -> f dir)

(* The store axis composed with the domain axis: the same pooled
   workload leaves byte-identical state on anonymous and file-mapped
   ([--mmap]) stores at every job count (the serial anonymous run is the
   single reference). *)
let test_backends_identical_across_jobs () =
  let want_fs = aged_fs () in
  let want = cache_state want_fs in
  List.iter
    (fun jobs ->
      let anonymous = aged_fs ~run:(jobs_run jobs) () in
      let mapped =
        with_fresh_mmap_dir "wafl_test_par_jobs" (fun dir ->
            aged_fs ~run:{ (jobs_run jobs) with Config.mmap_dir = Some dir } ())
      in
      List.iter
        (fun (label, fs) ->
          let label = Printf.sprintf "jobs=%d %s" jobs label in
          check_bool (label ^ ": cache state identical") true (cache_state fs = want);
          check_bitmaps_equal label fs want_fs)
        [ ("anonymous", anonymous); ("mmap", mapped) ])
    [ 1; 2; 4; 8 ]

let test_crash_matrix_bigarray_lazy () =
  let eager = Crash_matrix.run ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 () in
  check_bool "eager matrix clean" true (eager.Crash_matrix.violations = []);
  let lazy_mapped =
    with_fresh_mmap_dir "wafl_test_par_cm" (fun dir ->
        Crash_matrix.run
          ~run:{ Config.default_run with Config.mmap_dir = Some dir }
          ~lazy_rebuild:true ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 ())
  in
  (* mapped stores add the integrity plane's own crash points *)
  let store_points =
    List.filter (fun p -> not (String.starts_with ~prefix:"integrity." p))
  in
  check_bool "same crash-point sequence on mapped stores" true
    (store_points lazy_mapped.Crash_matrix.points = eager.Crash_matrix.points);
  check_bool "mmap + lazy-remount matrix clean" true (lazy_mapped.Crash_matrix.violations = [])

let test_crash_matrix_with_pool () =
  let serial = Crash_matrix.run ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 () in
  check_bool "serial matrix clean" true (serial.Crash_matrix.violations = []);
  let par = Crash_matrix.run ~run:(jobs_run 2) ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 () in
  check_bool "same crash-point sequence" true
    (par.Crash_matrix.points = serial.Crash_matrix.points);
  check_bool "parallel matrix clean" true (par.Crash_matrix.violations = [])

(* --- every pool-capable stage still dispatches to its pool ---

   State is bit-identical at any domain count, so the determinism tests
   above cannot see a stage that silently runs serially.  This fixed rig
   drives every stage that dispatches at two domains — allocation
   windows (allocation pool), the CP's activemap commits, per-volume
   commits and per-range flushes, scrubber verification, Iron's scans
   and a full-scan remount's rescoring (scan pool) — and pins the
   dispatch counters to the values the same rig produced when both pools
   were installed process-wide (SSD, 2 temperature classes, 2 + 2
   domains, 10 CPs).  A sharded harvest at two domains runs its second
   shard inline and dispatches nothing; "sharded harvest" above covers
   it. *)
let test_pool_dispatch_counts () =
  (* ranges with 128 AAs (parallel rescoring); three ranges and three
     volumes, since a two-chunk map runs its second chunk inline *)
  let rg =
    { Config.media = Config.Ssd (Wafl_experiments.Common.ssd_profile Wafl_experiments.Common.Quick);
      data_devices = 4; parity_devices = 1; device_blocks = 16384; aa_stripes = Some 128 }
  in
  let vol name = { Config.name; blocks = 32768; aa_blocks = Some 1024; policy = Config.Best_aa } in
  let tel = Telemetry.create () in
  with_fresh_mmap_dir "wafl_test_par_rig" (fun dir ->
      let run =
        { Config.mmap_dir = Some dir; jobs = 2; alloc_domains = 2; scrub_rate = 64;
          faults = None; streams = { Config.default_streams with Config.temp_classes = 2 } }
      in
      let config =
        Config.make ~raid_groups:[ rg; rg; rg ] ~vols:[ vol "a"; vol "b"; vol "c" ]
          ~aggregate_policy:Config.Best_aa ~run ~seed:42 ()
      in
      Telemetry.with_installed tel (fun () ->
          let fs = Fs.create config in
          let rng = Wafl_util.Rng.create ~seed:5 in
          for _ = 1 to 10 do
            Array.iter
              (fun vol ->
                for _ = 1 to 1000 do
                  Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 4)
                    ~offset:(Wafl_util.Rng.int rng 4096)
                done)
              (Fs.vols fs);
            ignore (Fs.run_cp fs)
          done;
          ignore (Iron.check fs);
          ignore (Mount.mount (Mount.snapshot fs) ~with_topaa:false)));
  let counter name =
    match Registry.find (Telemetry.registry tel) name with
    | Some (Registry.Counter c) -> Registry.count c
    | _ -> 0
  in
  check_int "par.tasks" 106 (counter "par.tasks");
  check_int "par.chunks" 333 (counter "par.chunks")

(* --- modeled scaling of the full-scan mount ---

   The full-scan mount's modeled ready_us divides its linear page-scan
   term by the domain count.  On a quick-scale two-RAID-group system aged
   by four overwrite CPs, 4 domains must cut it at least 2.5x (the model
   gives 3.95x). *)
let test_modeled_mount_speedup () =
  let rg = Wafl_experiments.Common.hdd_raid_group Wafl_experiments.Common.Quick in
  let fs =
    Fs.create
      (Config.make ~raid_groups:[ rg; rg ]
         ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65_536 ]
         ~aggregate_policy:Config.Best_aa ~seed:7 ())
  in
  let vol = (Fs.vols fs).(0) in
  for cp = 0 to 3 do
    for i = 0 to 2047 do
      Fs.stage_write fs ~vol ~file:(cp mod 4) ~offset:i
    done;
    ignore (Fs.run_cp fs)
  done;
  let image = Mount.snapshot fs in
  let _, serial = Mount.mount image ~with_topaa:false in
  let _, par = Mount.mount ~run:(jobs_run 4) image ~with_topaa:false in
  let speedup = serial.Mount.ready_us /. par.Mount.ready_us in
  check_bool
    (Printf.sprintf "modeled full-scan speedup at 4 domains %.2fx >= 2.5x" speedup)
    true (speedup >= 2.5)

let () =
  Alcotest.run "wafl_par"
    [
      ( "pool",
        [
          Alcotest.test_case "run covers all chunks" `Quick test_run_covers_all_chunks;
          Alcotest.test_case "map slot order" `Quick test_map_slot_order;
          Alcotest.test_case "lowest-chunk exception" `Quick test_exception_lowest_chunk;
          Alcotest.test_case "nested run is serial" `Quick test_nested_run_is_serial;
          Alcotest.test_case "jobs=1 and shutdown degrade" `Quick
            test_jobs1_and_shutdown_degrade;
          Alcotest.test_case "chunk_bounds properties" `Quick test_chunk_bounds_properties;
          Alcotest.test_case "shared cache" `Quick test_shared_pools;
          Alcotest.test_case "map_ranges chunking" `Quick test_map_ranges;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "multi-domain hammer" `Quick test_telemetry_hammer ] );
      ( "determinism",
        [
          Alcotest.test_case "mount full scan" `Quick test_mount_full_scan_determinism;
          Alcotest.test_case "rebuild caches" `Quick test_rebuild_caches_determinism;
          Alcotest.test_case "iron findings" `Quick test_iron_determinism;
          Alcotest.test_case "activemap commit" `Quick test_activemap_parallel_commit;
          Alcotest.test_case "sharded harvest" `Quick test_sharded_harvest_identical;
          Alcotest.test_case "whole CP" `Quick test_parallel_cp_identical;
          Alcotest.test_case "backends across job counts" `Quick
            test_backends_identical_across_jobs;
          Alcotest.test_case "crash matrix bigarray + lazy" `Slow test_crash_matrix_bigarray_lazy;
          Alcotest.test_case "crash matrix under a pool" `Slow test_crash_matrix_with_pool;
        ] );
      ( "stages",
        [ Alcotest.test_case "dispatch counts pinned" `Quick test_pool_dispatch_counts ] );
      ( "scaling",
        [ Alcotest.test_case "modeled mount speedup at 4" `Quick test_modeled_mount_speedup ] );
    ]
