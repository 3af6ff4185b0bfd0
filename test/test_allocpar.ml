(* Tests for the lock-free multi-writer allocation front-end: the two
   hard invariants (bit-identical final state vs. serial on
   drain-symmetric workloads at every domain count, zero minor-heap
   words per block in the pop-consume loop), conservation (no double
   handout, no lost concurrent free), and the mmap pagestore remount
   path. *)

open Wafl_bitmap
open Wafl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Byte-aligned geometry (every AA extent starts and ends on a bitmap
   byte), so the front-end's static [parallel_capable] gate opens. *)
let par_config ?(alloc_domains = 1) () =
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
    ~aggregate_policy:Config.Best_aa
    ~run:{ Config.default_run with Config.alloc_domains }
    ~seed:7 ()

let agg_bitmap fs = Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs))

(* Allocate until the aggregate is dry, asserting the zero-allocation
   contract after every batch that went through the parallel window. *)
let fill_to_capacity wa =
  let dst = Array.make 4096 0 in
  let out = ref [] in
  let rec go () =
    let got = Write_alloc.allocate_pvbns_into wa ~dst 4096 in
    Array.iter
      (fun s ->
        check_int "minor words per shard" 0 s.Write_alloc.ps_minor_words)
      (Write_alloc.last_par_stats wa);
    if got > 0 then begin
      out := Array.sub dst 0 got :: !out;
      go ()
    end
  in
  go ();
  Array.concat (List.rev !out)

let check_all_distinct label pvbns =
  let sorted = Array.copy pvbns in
  Array.sort compare sorted;
  let dup = ref false in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then dup := true
  done;
  check_bool (label ^ ": no pvbn handed out twice") false !dup

let test_capable () =
  let fs = Fs.create (par_config ()) in
  check_bool "byte-aligned config is parallel-capable" true
    (Write_alloc.parallel_capable (Fs.write_alloc fs))

(* The tentpole invariant: a drain-symmetric workload (fill every
   allocatable block, then free them all back) leaves state
   bit-identical to the serial allocator at every domain count, hands
   no block out twice, and loses no concurrent free. *)
let hammer jobs =
  (* Serial reference. *)
  let fs_s = Fs.create (par_config ()) in
  let pv_s = fill_to_capacity (Fs.write_alloc fs_s) in
  check_int "serial fill drains the aggregate" 0
    (Aggregate.free_blocks (Fs.aggregate fs_s));
  let want = agg_bitmap fs_s in
  (* Parallel run. *)
  let fs = Fs.create (par_config ~alloc_domains:jobs ()) in
  let wa = Fs.write_alloc fs in
  let before = agg_bitmap fs in
  let free0 = Aggregate.free_blocks (Fs.aggregate fs) in
  let pv = fill_to_capacity wa in
  let label = Printf.sprintf "jobs=%d" jobs in
  check_int (label ^ ": same blocks handed out") (Array.length pv_s)
    (Array.length pv);
  check_all_distinct label pv;
  check_int (label ^ ": parallel fill drains the aggregate") 0
    (Aggregate.free_blocks (Fs.aggregate fs));
  check_bool
    (label ^ ": final bitmap identical to serial")
    true
    (Bitmap.equal want (agg_bitmap fs));
  if jobs > 1 then
    check_int (label ^ ": one shard per domain") jobs
      (Array.length (Write_alloc.last_par_stats wa));
  check_int (label ^ ": claim CAS races") 0 (Write_alloc.claim_conflicts wa);
  (* CP boundary releases every claim and refiles taken AAs. *)
  Write_alloc.cp_finish wa;
  (* Free everything back through the concurrent per-slot queues. *)
  Write_alloc.prepare_par wa ~jobs;
  Array.iteri
    (fun i pvbn -> Write_alloc.queue_free_par wa ~slot:(i mod jobs) ~pvbn)
    pv;
  check_int (label ^ ": no concurrent free lost") (Array.length pv)
    (Write_alloc.drain_queued_frees wa);
  ignore (Aggregate.commit_frees (Fs.aggregate fs));
  check_int (label ^ ": all blocks free again") free0
    (Aggregate.free_blocks (Fs.aggregate fs));
  check_bool
    (label ^ ": free-all restores the pre-fill bitmap")
    true
    (Bitmap.equal before (agg_bitmap fs))

let test_hammer_jobs2 () = hammer 2
let test_hammer_jobs4 () = hammer 4
let test_hammer_jobs8 () = hammer 8

(* Modeled critical path of one fill to capacity, in block-equivalents:
   the largest per-shard consume share of each allocation window, plus
   blocks the post-window serial path handed out, plus each AA pick's
   serialized section at [pick_units] blocks.  With no pool every block
   is on the serial path, so the same formula covers the serial fill. *)
let pick_units = 64

let modeled_fill_units ~jobs =
  let rg = Wafl_experiments.Common.hdd_raid_group Wafl_experiments.Common.Quick in
  let config =
    Config.make ~raid_groups:[ rg; rg ]
      ~vols:[ Config.default_vol ~name:"vol0" ~blocks:4096 ]
      ~aggregate_policy:Config.Best_aa
      ~run:{ Config.default_run with Config.alloc_domains = jobs }
      ~seed:7 ()
  in
  let fill () =
    let fs = Fs.create config in
    let wa = Fs.write_alloc fs in
    let n = Aggregate.free_blocks (Fs.aggregate fs) in
    let batch = 65_536 in
    let dst = Array.make batch 0 in
    let in_windows = ref 0 and max_shard = ref 0 in
    let rec go () =
      let got = Write_alloc.allocate_pvbns_into wa ~dst batch in
      if jobs > 1 then begin
        let shares =
          Array.map (fun s -> s.Write_alloc.ps_allocated) (Write_alloc.last_par_stats wa)
        in
        in_windows := !in_windows + Array.fold_left ( + ) 0 shares;
        max_shard := !max_shard + Array.fold_left max 0 shares
      end;
      if got > 0 then go ()
    in
    go ();
    check_int "fill drains the aggregate" 0 (Aggregate.free_blocks (Fs.aggregate fs));
    !max_shard + (n - !in_windows) + (Write_alloc.aas_taken wa * pick_units)
  in
  fill ()

(* 4 allocation domains must shorten the modeled critical path at least
   2.5x (the model gives 3.82x). *)
let test_modeled_speedup () =
  let speedup =
    float_of_int (modeled_fill_units ~jobs:1) /. float_of_int (modeled_fill_units ~jobs:4)
  in
  check_bool
    (Printf.sprintf "modeled allocation speedup at 4 domains %.2fx >= 2.5x" speedup)
    true (speedup >= 2.5)

(* One allocation domain means no allocation pool at all: even a batch
   far above the parallel-window threshold runs no window. *)
let test_jobs1_is_serial () =
  let wa = Fs.write_alloc (Fs.create (par_config ~alloc_domains:1 ())) in
  let dst = Array.make 4096 0 in
  check_int "a full batch is served" 4096 (Write_alloc.allocate_pvbns_into wa ~dst 4096);
  check_int "jobs=1 runs no parallel window" 0 (Array.length (Write_alloc.last_par_stats wa))

(* Whole CPs with the pool installed: the op-for-op identical workload
   must allocate exactly as many blocks as the serial system (the
   blocks chosen may differ — picks interleave — but none may be lost
   or duplicated, and the activemap's internal validation would fail
   the CP on any double handout). *)
let test_pooled_cps_conserve () =
  let run fs =
    let vol = (Fs.vols fs).(0) in
    for cp = 0 to 2 do
      for i = 0 to 2047 do
        Fs.stage_write fs ~vol ~file:(cp mod 2) ~offset:i
      done;
      ignore (Fs.run_cp fs)
    done;
    Aggregate.free_blocks (Fs.aggregate fs)
  in
  let free_serial = run (Fs.create (par_config ())) in
  let free_par = run (Fs.create (par_config ~alloc_domains:4 ())) in
  check_int "pooled CPs allocate the same block count" free_serial free_par

(* --- mmap pagestore: remount reproduces persisted state --- *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  dir

let test_mmap_remount () =
  let dir = fresh_dir "wafl_test_allocpar_mmap" in
  let bits_a = 4096 and bits_b = 10000 in
  (* First process: create two stores (deterministic ps0/ps1 sequence)
     and persist a bit pattern into each. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a () in
      let b = Bitmap.create ~bits:bits_b () in
      Bitmap.set a 7;
      Bitmap.set a 4090;
      Bitmap.set_range b ~start:100 ~len:33);
  (* Remount: the same creation order maps the same files, so the bits
     come back without any explicit load step. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a () in
      let b = Bitmap.create ~bits:bits_b () in
      check_bool "bit 7 persisted" true (Bitmap.get a 7);
      check_bool "bit 4090 persisted" true (Bitmap.get a 4090);
      check_int "store a population" 2 (Bitmap.count_set a);
      check_int "store b population" 33 (Bitmap.count_set b);
      check_bool "unset bit stays unset" false (Bitmap.get b 99));
  (* A size change must not inherit stale bytes: recreating store a at a
     different word count zero-fills it. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:(2 * bits_a) () in
      check_int "resized store is zero-filled" 0 (Bitmap.count_set a))

(* Only [~mapped:true] stores join the file sequence: an explicitly
   unmapped store under an installed directory stays anonymous. *)
let test_mmap_explicit_backend_stays_anonymous () =
  let dir = fresh_dir "wafl_test_allocpar_mmap2" in
  Pagestore.with_mmap_dir dir (fun () ->
      let n_before = Array.length (Sys.readdir dir) in
      let s = Pagestore.create ~mapped:false 16 in
      check_bool "unmapped create has no path" true (Pagestore.mapped_path s = None);
      check_int "unmapped create maps no file" n_before (Array.length (Sys.readdir dir)))

let () =
  Alcotest.run "allocpar"
    [
      ( "front-end",
        [
          Alcotest.test_case "parallel capable" `Quick test_capable;
          Alcotest.test_case "jobs=1 is serial" `Quick test_jobs1_is_serial;
          Alcotest.test_case "hammer jobs=2" `Quick test_hammer_jobs2;
          Alcotest.test_case "hammer jobs=4" `Quick test_hammer_jobs4;
          Alcotest.test_case "hammer jobs=8" `Slow test_hammer_jobs8;
          Alcotest.test_case "pooled CPs conserve" `Quick
            test_pooled_cps_conserve;
          Alcotest.test_case "modeled speedup at 4" `Quick test_modeled_speedup;
        ] );
      ( "mmap backend",
        [
          Alcotest.test_case "remount reproduces state" `Quick
            test_mmap_remount;
          Alcotest.test_case "explicit backend stays anonymous" `Quick
            test_mmap_explicit_backend_stays_anonymous;
        ] );
    ]
