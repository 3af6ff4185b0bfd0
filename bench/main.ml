(* The two checks tier-1 cannot host.

   Usage:
     bench/main.exe offheap     the off-heap page store at modeled
                                billion-block scale; CI runs it under a
                                6 GiB `ulimit -v` address-space cap
     bench/main.exe overhead    CP time with telemetry, integrity sealing
                                and the latency recorder installed against
                                the same run without each
     bench/main.exe             both

   Each check exits 1 when its gate fails.  Every exact gate (zero minor
   words, state identical to serial, write-amplification bounds, the
   scrub heal closure, latency curve shape) is a tier-1 test; the
   measured benchmark is perfbench/. *)

(* --- overhead: installed vs base CP time ---

   One helper for the three "installed costs <5% CP time" budgets.  Runs
   alternate which side goes first, so slow drift (page-cache writeback,
   CPU frequency) lands on both equally, and the best of each side is
   kept: the workloads are deterministic, so the fastest run is the least
   noise-polluted one.  The 5 ms term absorbs timer noise on ~10 ms runs
   and is most of the gate at this size. *)

let overhead_pairs = 5

let best_of_pairs ~base ~installed =
  ignore (base ());
  ignore (installed ());
  let b = ref infinity and c = ref infinity in
  for i = 1 to overhead_pairs do
    if i land 1 = 0 then begin
      b := Float.min !b (base ());
      c := Float.min !c (installed ())
    end
    else begin
      c := Float.min !c (installed ());
      b := Float.min !b (base ())
    end
  done;
  (!b, !c)

let overhead_ok name ~base ~installed =
  let b, c = best_of_pairs ~base ~installed in
  let ok = c <= (b *. 1.05) +. 0.005 in
  Printf.printf "  %-26s base %7.1f ms  installed %7.1f ms  (%+5.1f%%)  %s\n%!" name (b *. 1e3)
    (c *. 1e3)
    ((c -. b) /. b *. 100.0)
    (if ok then "ok" else "OVER 1.05 x base + 5 ms");
  ok

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Seconds spent in [cps] CPs of [ops] sequential writes on a fresh
   quick-scale HDD aggregate, with [tel] installed when given. *)
let sequential_cp_secs ?tel ~cps ~ops () =
  let open Wafl_core in
  let rg = Wafl_experiments.Common.hdd_raid_group Wafl_experiments.Common.Quick in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [
          {
            Config.name = "seq";
            blocks = rg.Config.data_devices * rg.Config.device_blocks;
            aa_blocks = None;
            policy = Config.Best_aa;
          };
        ]
      ~aggregate_policy:Config.Best_aa ~seed:7 ()
  in
  let fs = Fs.create config in
  let workload = Wafl_workload.Sequential.create fs (Fs.vol fs "seq") () in
  let steps () =
    for _ = 1 to cps do
      ignore (Wafl_workload.Sequential.step workload ops)
    done
  in
  time (fun () ->
      match tel with
      | None -> steps ()
      | Some tel -> Wafl_telemetry.Telemetry.with_installed tel steps)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o700;
  dir

(* [cps] CPs of [ops] random overwrites on a file-mapped 64k-block
   aggregate, with CRC sealing on or off; two warm-up CPs stay untimed. *)
let mmap_cp_secs ~sealed ~cps ~ops () =
  let open Wafl_core in
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  let dir = fresh_dir "wafl_bench_overhead_seal" in
  let config =
    Config.make ~raid_groups:[ rg; rg ] ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
      ~run:{ Config.default_run with Config.mmap_dir = Some dir }
      ~seed:3 ()
  in
  Wafl_bitmap.Integrity.set_enabled sealed;
  Fun.protect
    ~finally:(fun () -> Wafl_bitmap.Integrity.set_enabled true)
    (fun () ->
          Wafl_bitmap.Pagestore.with_mmap_dir dir (fun () ->
              let fs = Fs.create config in
              let vol = (Fs.vols fs).(0) in
              let rng = Wafl_util.Rng.create ~seed:5 in
              let cp () =
                for _ = 1 to ops do
                  Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 16)
                    ~offset:(Wafl_util.Rng.int rng 2048)
                done;
                ignore (Fs.run_cp fs)
              in
              cp ();
              cp ();
              time (fun () ->
                  for _ = 1 to cps do
                    cp ()
                  done)))

let run_overhead () =
  print_endline "CP-time overhead: installed vs base (best of 5 interleaved pairs)";
  let open Wafl_telemetry in
  let telemetry =
    overhead_ok "telemetry (spans + series)"
      ~base:(sequential_cp_secs ~cps:30 ~ops:1000)
      ~installed:(fun () -> sequential_cp_secs ~tel:(Telemetry.create ()) ~cps:30 ~ops:1000 ())
  in
  let sealing =
    overhead_ok "integrity sealing (mmap)"
      ~base:(mmap_cp_secs ~sealed:false ~cps:8 ~ops:8000)
      ~installed:(mmap_cp_secs ~sealed:true ~cps:8 ~ops:8000)
  in
  let latency =
    let model = Wafl_sim.Cost_model.latency_model Wafl_sim.Cost_model.default in
    overhead_ok "latency recorder"
      ~base:(fun () -> sequential_cp_secs ~tel:(Telemetry.create ()) ~cps:20 ~ops:1000 ())
      ~installed:(fun () ->
        let latency = Latency.create ~model () in
        sequential_cp_secs ~tel:(Telemetry.create ~latency ()) ~cps:20 ~ops:1000 ())
  in
  telemetry && sealing && latency

(* --- offheap: the page store at modeled billion-block scale ---

   An aggregate of 16 object-backed (RAID-agnostic) ranges is sized at
   2^24, 2^27 and 2^30 blocks — the last a modeled billion-block
   aggregate, 128 MiB of allocation bitmap, of which the GC sees only the
   store handles.  Each case
   builds the system, commits one small CP's worth of allocations,
   snapshots it, and remounts the image twice: lazily (--lazy-rebuild:
   TopAA-seeded, nothing scanned, every range stale) and eagerly (full
   scan).  After the lazy mount one 8-block allocation shows incremental
   materialization: only the range the allocator actually refilled pays
   its rescore.  Asserts that

   - the lazy modeled mount-ready time is independent of aggregate size
     (largest/smallest under 2.5x — the residual growth is the TopAA
     seed count rising until the top-500-AAs-per-range cap engages —
     while the eager full scan grows ~64x, at least 10x the lazy ratio),
   - the first touch materializes strictly fewer than half the ranges,
   - at the billion-block size the live OCaml heap stays under a quarter
     of one bitmap copy (the free-space state is off-heap). *)

type offheap_case = {
  oh_blocks : int;
  oh_lazy_ready_us : float;
  oh_eager_ready_us : float;
  oh_touched_ranges : int;
  oh_total_ranges : int;
  oh_first_touch_pages : int;
  oh_heap_mb : float;
  oh_rss_mb : float;
}

let vm_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then begin
        let kb = ref 0 in
        String.iter
          (fun c -> if c >= '0' && c <= '9' then kb := (!kb * 10) + (Char.code c - Char.code '0'))
          line;
        float_of_int !kb /. 1024.0
      end
      else go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let offheap_aa_blocks = 32768

let offheap_case ~blocks =
  let n_ranges = 16 in
  let spec =
    {
      Wafl_core.Config.profile = Wafl_device.Profile.default_object_store;
      blocks = blocks / n_ranges;
      aa_blocks = Some offheap_aa_blocks;
    }
  in
  let config =
    Wafl_core.Config.make ~raid_groups:[]
      ~object_ranges:(List.init n_ranges (fun _ -> spec))
      ~aggregate_policy:Wafl_core.Config.Best_aa ~seed:7 ()
  in
  let fs = Wafl_core.Fs.create config in
  (* one small committed CP so the image is not trivially empty *)
  let w = Wafl_core.Fs.write_alloc fs in
  let dst = Array.make 4096 0 in
  ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 4096);
  Wafl_core.Write_alloc.cp_finish w;
  let image = Wafl_core.Mount.snapshot fs in
  let mounted, lazy_t =
    Wafl_core.Mount.mount ~lazy_rebuild:true image ~with_topaa:true
  in
  (* first touch: a small allocation refills one cursor, so exactly
     the ranges it drew from pay their rescore — not the aggregate *)
  let agg = Wafl_core.Fs.aggregate mounted in
  let mf = Wafl_core.Aggregate.metafile agg in
  let reads_before = (Wafl_bitmap.Metafile.stats mf).Wafl_bitmap.Metafile.page_reads in
  ignore (Wafl_core.Write_alloc.allocate_pvbns_into (Wafl_core.Fs.write_alloc mounted) ~dst 8);
  let first_touch_pages =
    (Wafl_bitmap.Metafile.stats mf).Wafl_bitmap.Metafile.page_reads - reads_before
  in
  let touched =
    Array.fold_left
      (fun acc r -> if Wafl_core.Aggregate.range_fresh agg r then acc + 1 else acc)
      0 (Wafl_core.Aggregate.ranges agg)
  in
  let _, eager_t = Wafl_core.Mount.mount image ~with_topaa:false in
  Gc.full_major ();
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.heap_words * 8) /. 1048576.0 in
  {
    oh_blocks = blocks;
    oh_lazy_ready_us = lazy_t.Wafl_core.Mount.ready_us;
    oh_eager_ready_us = eager_t.Wafl_core.Mount.ready_us;
    oh_touched_ranges = touched;
    oh_total_ranges = n_ranges;
    oh_first_touch_pages = first_touch_pages;
    oh_heap_mb = heap_mb;
    oh_rss_mb = vm_rss_mb ();
  }

let run_offheap () =
  print_endline "Off-heap page store: modeled billion-block aggregate, lazy vs eager mount";
  let rows =
    List.map
      (fun blocks ->
        let c = offheap_case ~blocks in
        Printf.printf
          "  2^%2.0f blocks: lazy ready %8.0f us, eager %12.0f us, first touch %d/%d ranges \
           (%d pages), heap %6.1f MB, rss %7.1f MB\n%!"
          (Float.log2 (float_of_int blocks))
          c.oh_lazy_ready_us c.oh_eager_ready_us c.oh_touched_ranges c.oh_total_ranges
          c.oh_first_touch_pages c.oh_heap_mb c.oh_rss_mb;
        c)
      [ 1 lsl 24; 1 lsl 27; 1 lsl 30 ]
  in
  let smallest = List.hd rows in
  let largest = List.nth rows (List.length rows - 1) in
  let lazy_ratio = largest.oh_lazy_ready_us /. smallest.oh_lazy_ready_us in
  let eager_ratio = largest.oh_eager_ready_us /. smallest.oh_eager_ready_us in
  Printf.printf
    "  lazy ready largest/smallest: %.2fx (eager: %.1fx) over a %dx size spread\n"
    lazy_ratio eager_ratio (largest.oh_blocks / smallest.oh_blocks);
  let ok = ref true in
  let fail fmt = ok := false; Printf.eprintf fmt in
  if lazy_ratio > 2.5 then
    fail "FAIL: lazy mount-ready time grew %.2fx with aggregate size (expected ~1x)\n"
      lazy_ratio;
  if eager_ratio < 8.0 || eager_ratio < 10.0 *. lazy_ratio then
    fail "FAIL: eager full-scan ready grew only %.1fx over a %dx size spread (lazy %.2fx)\n"
      eager_ratio (largest.oh_blocks / smallest.oh_blocks) lazy_ratio;
  List.iter
    (fun c ->
      if 2 * c.oh_touched_ranges >= c.oh_total_ranges then
        fail "FAIL: first touch materialized %d/%d ranges (expected a strict minority)\n"
          c.oh_touched_ranges c.oh_total_ranges)
    rows;
  let bitmap_mb = float_of_int (largest.oh_blocks / 8) /. 1048576.0 in
  if largest.oh_heap_mb > bitmap_mb /. 4.0 then
    fail "FAIL: billion-block case kept %.1f MB on the OCaml heap (budget %.1f MB)\n"
      largest.oh_heap_mb (bitmap_mb /. 4.0);
  !ok

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known = [ "offheap"; "overhead" ] in
  match List.filter (fun a -> not (List.mem a known)) args with
  | bad :: _ ->
    Printf.eprintf "bench: unknown check %S (expected offheap and/or overhead)\n" bad;
    exit 2
  | [] ->
    let wants name = args = [] || List.mem name args in
    let offheap = (not (wants "offheap")) || run_offheap () in
    let overhead = (not (wants "overhead")) || run_overhead () in
    if not (offheap && overhead) then exit 1
