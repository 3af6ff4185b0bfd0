(* Wall-clock benchmark of the free-block search stack.

   One process on one domain drives a closed loop: each iteration generates
   one CP's worth of client operations, issues them, and runs the CP; the
   next batch is generated only after [Fs.run_cp] returns.  Every staged
   write, block-map read and mount comes from the seeded generator in this
   file, so the library sees only the generated calls.

   A run has three parts:
   - set-up: build and age the rig, then warm it up; repeated [setup_runs]
     times and reported as the median ([setup_s]);
   - the churn window: the closed loop above, for 70% of [--seconds];
   - the failover phase: for the remaining 30%, repeated snapshot / lazy
     TopAA mount + first CP / full-scan mount + first CP cycles (§3.4).

   Untraced runs ([--trace 0]) time only what the end-to-end metrics need.
   A traced run ([--trace 1]) also times every batch of calls into a layer
   from here, outside the library, on alternate CPs, and reads the layers'
   public counters; the untimed CPs in between give its own overhead.
   After the run, untimed checks verify the result (see [verify]).

   Usage:
     main.exe --workload ssd-churn|hdd-oltp --seed N --seconds S --trace 0|1
              [--scale quick|small|tiny] [--cps N] [--mounts N] [--commit ID]
   The last line of standard output is the result object. *)

open Wafl_core
module Rng = Wafl_util.Rng
module Metafile = Wafl_bitmap.Metafile

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6

(* ---------- arguments ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  shrink : int;  (** rig sizes are the Fig. 6/7 quick scale divided by this *)
  fixed_cps : int option;  (** replace the timed churn window by a CP count *)
  fixed_mounts : int option;  (** replace the timed failover phase by a count *)
  commit : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let shrink = ref 4 and fixed_cps = ref None and fixed_mounts = ref None in
  let commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " ssd-churn | hdd-oltp");
      ("--seed", Arg.Set_int seed, " generator seed");
      ("--seconds", Arg.Set_float seconds, " measured wall time (churn + failover)");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), " 0: end-to-end metrics, 1: per-layer");
      ( "--scale",
        Arg.Symbol
          ( [ "quick"; "small"; "tiny" ],
            fun s -> shrink := List.assoc s [ ("quick", 1); ("small", 4); ("tiny", 8) ] ),
        " rig size (default small)" );
      ("--cps", Arg.Int (fun n -> fixed_cps := Some n), " fixed churn CP count");
      ("--mounts", Arg.Int (fun n -> fixed_mounts := Some n), " fixed failover-cycle count");
      ("--commit", Arg.Set_string commit, " source revision for the result stamp");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  {
    workload = !workload; seed = !seed; seconds = !seconds; trace = !trace; shrink = !shrink;
    fixed_cps = !fixed_cps; fixed_mounts = !fixed_mounts; commit = !commit;
  }

(* ---------- rigs ---------- *)

let file = 1

type rig = {
  fs : Fs.t;
  vol : Flexvol.t;
  working_set : int;  (** blocks 0 .. working_set-1 of [file] are mapped *)
  orphans : int;  (** blocks aged in place, owned by no volume *)
}

(* Write [file] sequentially, one CP per 4096 blocks, until the aggregate
   is [fraction] used or [limit] blocks are written; returns the count. *)
let fill fs vol ~fraction ~limit =
  let agg = Fs.aggregate fs in
  let rec go n =
    if n >= limit || Aggregate.used_fraction agg >= fraction then n
    else begin
      let hi = min limit (n + 4096) in
      for offset = n to hi - 1 do
        Fs.stage_write fs ~vol ~file ~offset
      done;
      ignore (Fs.run_cp fs);
      go hi
    end
  in
  go 0

(* The Fig. 6 rig: one all-SSD RAID group with erase-block-sized AAs, a
   thin volume, filled to 55% and fragmented by random overwrites. *)
let ssd_rig ~shrink rng =
  let profile =
    {
      Wafl_device.Profile.default_ssd with
      Wafl_device.Profile.erase_block_blocks = 2048 / shrink;
      overprovision = 0.15;
    }
  in
  let device_blocks = 131072 / shrink in
  let rg =
    {
      Config.media = Config.Ssd profile;
      data_devices = 4;
      parity_devices = 1;
      device_blocks;
      aa_stripes = Some (Wafl_aa.Sizing.ssd_stripes ~erase_blocks_per_aa:1 profile);
    }
  in
  let agg_blocks = 4 * device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [
          {
            Config.name = "lun";
            blocks = agg_blocks * 9 / 8;
            aa_blocks = Some (max 256 (1024 / shrink));
            policy = Config.Best_aa;
          };
        ]
      ~aggregate_policy:Config.Best_aa ~seed:(Rng.int rng 1_000_000) ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "lun" in
  let working_set = fill fs vol ~fraction:0.55 ~limit:agg_blocks in
  for _ = 1 to 120 do
    for _ = 1 to 2500 / shrink do
      Fs.stage_write fs ~vol ~file ~offset:(Rng.int rng working_set)
    done;
    ignore (Fs.run_cp fs)
  done;
  { fs; vol; working_set; orphans = 0 }

(* The Fig. 7 rig: four HDD RAID groups, RG0 and RG1 aged in place to a
   random half used, and a database file of a tenth of the aggregate. *)
let hdd_rig ~shrink rng =
  let device_blocks = 32768 / shrink in
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks;
      aa_stripes = Some (1024 / shrink);
    }
  in
  let agg_blocks = 4 * 4 * device_blocks in
  let config =
    Config.make ~raid_groups:[ rg; rg; rg; rg ]
      ~vols:
        [
          {
            Config.name = "db";
            blocks = agg_blocks;
            aa_blocks = Some (4096 / shrink);
            policy = Config.Best_aa;
          };
        ]
      ~aggregate_policy:Config.Best_aa ~seed:(Rng.int rng 1_000_000) ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "db" in
  let agg = Fs.aggregate fs in
  let orphans = ref 0 in
  Array.iteri
    (fun i (r : Aggregate.range) ->
      if i < 2 then begin
        let target = r.Aggregate.blocks / 2 in
        let n = ref 0 in
        while !n < target do
          let pvbn = Aggregate.to_global r (Rng.int rng r.Aggregate.blocks) in
          if not (Metafile.is_allocated (Aggregate.metafile agg) pvbn) then begin
            Aggregate.allocate agg ~pvbn;
            incr n
          end
        done;
        orphans := !orphans + target
      end)
    (Aggregate.ranges agg);
  Write_alloc.cp_finish (Fs.write_alloc fs);
  Rebuild.request agg Rebuild.Full;
  let working_set = fill fs vol ~fraction:1.0 ~limit:(agg_blocks / 10) in
  { fs; vol; working_set; orphans = !orphans }

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  build : shrink:int -> Rng.t -> rig;
  ops_per_cp : int;  (** client ops per CP *)
  read_pct : int;  (** share of client ops that are block-map reads *)
  blocks_per_op : int;  (** blocks one update stages (an aligned run) *)
  nvram_ops : int;  (** updates logged, not yet CP'd, at each failover *)
}

let workloads =
  [
    { name = "ssd-churn"; build = ssd_rig; ops_per_cp = 1250; read_pct = 0; blocks_per_op = 2;
      nvram_ops = 1250 };
    { name = "hdd-oltp"; build = hdd_rig; ops_per_cp = 1500; read_pct = 60; blocks_per_op = 1;
      nvram_ops = 600 };
  ]

(* One CP's generated operations: update offsets, then read offsets. *)
type batch = { upd : int array; mutable n_upd : int; rd : int array; mutable n_rd : int }

let new_batch w = { upd = Array.make w.ops_per_cp 0; n_upd = 0; rd = Array.make w.ops_per_cp 0; n_rd = 0 }

let generate w rng rig b ~ops ~read_pct =
  b.n_upd <- 0;
  b.n_rd <- 0;
  let slots = rig.working_set / w.blocks_per_op in
  for _ = 1 to ops do
    if read_pct > 0 && Rng.int rng 100 < read_pct then begin
      b.rd.(b.n_rd) <- Rng.int rng rig.working_set;
      b.n_rd <- b.n_rd + 1
    end
    else begin
      b.upd.(b.n_upd) <- w.blocks_per_op * Rng.int rng slots;
      b.n_upd <- b.n_upd + 1
    end
  done

let stage w rig b =
  for i = 0 to b.n_upd - 1 do
    let base = b.upd.(i) in
    for k = 0 to w.blocks_per_op - 1 do
      Fs.stage_write rig.fs ~vol:rig.vol ~file ~offset:(base + k)
    done
  done

(* Block-map reads of committed data: file offset -> VVBN -> PVBN.  Every
   offset in the working set is mapped, so a miss is a failed op. *)
let read rig b =
  let misses = ref 0 in
  for i = 0 to b.n_rd - 1 do
    match Flexvol.read_file rig.vol ~file ~offset:b.rd.(i) with
    | Some vvbn -> if Flexvol.pvbn_of_vvbn rig.vol vvbn = None then incr misses
    | None -> incr misses
  done;
  !misses

(* ---------- samples ---------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Linear interpolation between closest ranks; 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let i = int_of_float pos in
      if i + 1 >= t.n then s.(t.n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end
end

(* ---------- the churn window ---------- *)

type churn = {
  mutable cps : int;
  mutable ops : int;
  mutable failed : int;  (** read misses *)
  mutable staged : int;  (** distinct blocks staged (after coalescing) *)
  mutable placed : int;  (** PVBNs the CPs placed *)
  mutable freed : int;
  mutable wall_ns : int;
  cp_ms : Samples.t;
  (* layer counters, summed over every CP *)
  mutable metafile_pages : int;
  mutable cache_work : int;
  mutable dev_blocks : int;
  mutable full_stripes : int;
  mutable partial_stripes : int;
  mutable chains : int;
  mutable parity_reads : int;
  mutable host_pages : int;
  mutable device_pages : int;
  mutable relocated : int;
  mutable erases : int;
  mutable device_us : float;
  (* traced CPs only (alternate CPs of a traced run) *)
  mutable t_iters : int;
  mutable t_ops : int;
  mutable t_updates : int;
  mutable t_reads : int;
  mutable t_placed : int;
  mutable t_wall : int;
  mutable t_gen : int;
  mutable t_read : int;
  mutable t_stage : int;
  mutable t_cp : int;
  (* untimed-call CPs of a traced run *)
  mutable u_iters : int;
  mutable u_ops : int;
  mutable u_wall : int;
}

let new_churn () =
  {
    cps = 0; ops = 0; failed = 0; staged = 0; placed = 0; freed = 0;
    wall_ns = 0; cp_ms = Samples.create (); metafile_pages = 0; cache_work = 0; dev_blocks = 0;
    full_stripes = 0; partial_stripes = 0; chains = 0; parity_reads = 0; host_pages = 0;
    device_pages = 0; relocated = 0; erases = 0; device_us = 0.0; t_iters = 0; t_ops = 0;
    t_updates = 0; t_reads = 0; t_placed = 0; t_wall = 0; t_gen = 0; t_read = 0; t_stage = 0;
    t_cp = 0; u_iters = 0; u_ops = 0; u_wall = 0;
  }

let count_report c (r : Cp.report) =
  c.placed <- c.placed + r.Cp.blocks_allocated;
  c.freed <- c.freed + r.Cp.pvbns_freed;
  c.metafile_pages <- c.metafile_pages + r.Cp.agg_metafile_pages + r.Cp.vol_metafile_pages;
  c.cache_work <- c.cache_work + r.Cp.cache_work;
  c.device_us <- c.device_us +. r.Cp.device_time_us;
  List.iter
    (fun (d : Cp.device_report) ->
      c.dev_blocks <- c.dev_blocks + d.Cp.blocks_written;
      c.full_stripes <- c.full_stripes + d.Cp.full_stripes;
      c.partial_stripes <- c.partial_stripes + d.Cp.partial_stripes;
      c.chains <- c.chains + d.Cp.chains;
      c.parity_reads <- c.parity_reads + d.Cp.parity_reads;
      match d.Cp.ssd_stats with
      | Some s ->
        c.host_pages <- c.host_pages + s.Wafl_device.Ftl.host_pages_written;
        c.device_pages <- c.device_pages + s.Wafl_device.Ftl.device_pages_written;
        c.relocated <- c.relocated + s.Wafl_device.Ftl.relocated_pages;
        c.erases <- c.erases + s.Wafl_device.Ftl.erases
      | None -> ())
    r.Cp.devices

(* [stop c t0] says whether the window is over, given the iteration's
   start time.  With [traced], even CPs time every batch of calls. *)
let run_churn w rig rng c ~traced ~stop =
  let b = new_batch w in
  let start = now_ns () in
  let t0 = ref start in
  while not (stop c !t0) do
    let timed = traced && c.cps land 1 = 0 in
    generate w rng rig b ~ops:w.ops_per_cp ~read_pct:w.read_pct;
    let t1 = if timed then now_ns () else 0 in
    c.failed <- c.failed + read rig b;
    let t2 = if timed then now_ns () else 0 in
    stage w rig b;
    let staged = Fs.staged_count rig.fs in
    let t3 = now_ns () in
    let r = Fs.run_cp rig.fs in
    let t4 = now_ns () in
    Samples.add c.cp_ms (ms (t4 - t3));
    c.cps <- c.cps + 1;
    c.ops <- c.ops + w.ops_per_cp;
    c.staged <- c.staged + staged;
    count_report c r;
    let t5 = now_ns () in
    if timed then begin
      c.t_iters <- c.t_iters + 1;
      c.t_ops <- c.t_ops + w.ops_per_cp;
      c.t_updates <- c.t_updates + b.n_upd;
      c.t_reads <- c.t_reads + b.n_rd;
      c.t_placed <- c.t_placed + r.Cp.blocks_allocated;
      c.t_wall <- c.t_wall + (t5 - !t0);
      c.t_gen <- c.t_gen + (t1 - !t0);
      c.t_read <- c.t_read + (t2 - t1);
      c.t_stage <- c.t_stage + (t3 - t2);
      c.t_cp <- c.t_cp + (t4 - t3)
    end
    else begin
      c.u_iters <- c.u_iters + 1;
      c.u_ops <- c.u_ops + w.ops_per_cp;
      c.u_wall <- c.u_wall + (t5 - !t0)
    end;
    t0 := t5
  done;
  c.wall_ns <- !t0 - start

(* ---------- the failover phase ---------- *)

type failover = {
  mutable cycles : int;
  ready_ms : Samples.t;  (** lazy TopAA mount call to first CP return *)
  scan_ready_ms : Samples.t;  (** full-scan mount call to first CP return *)
  snapshot_ms : Samples.t;
  call_ms : Samples.t;
  first_cp_ms : Samples.t;
  scan_call_ms : Samples.t;
  scan_first_cp_ms : Samples.t;
  mutable topaa : Mount.timing option;
  mutable scan : Mount.timing option;
}

let new_failover () =
  {
    cycles = 0; ready_ms = Samples.create (); scan_ready_ms = Samples.create ();
    snapshot_ms = Samples.create (); call_ms = Samples.create (); first_cp_ms = Samples.create ();
    scan_call_ms = Samples.create (); scan_first_cp_ms = Samples.create (); topaa = None;
    scan = None;
  }

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Free plus used equals total, counted from the bitmaps, for the
   aggregate and every volume. *)
let check_conservation what fs =
  let agg = Fs.aggregate fs in
  let total = Aggregate.total_blocks agg in
  let used = Metafile.used_count (Aggregate.metafile agg) ~start:0 ~len:total in
  if Aggregate.free_blocks agg + used <> total then
    fail "%s: aggregate free %d + used %d <> total %d" what (Aggregate.free_blocks agg) used total;
  Array.iter
    (fun v ->
      let n = Flexvol.blocks v in
      let used = Metafile.used_count (Flexvol.metafile v) ~start:0 ~len:n in
      if Flexvol.free_blocks v + used <> n then
        fail "%s: volume %s free + used <> %d" what (Flexvol.name v) n)
    (Fs.vols fs)

let check_first_cp what ~logged (t : Mount.timing) (r : Cp.report) =
  if t.Mount.ops_replayed <> logged || r.Cp.ops <> logged || r.Cp.blocks_allocated <> logged then
    fail "%s: %d logged, %d replayed, %d staged, %d placed" what logged t.Mount.ops_replayed
      r.Cp.ops r.Cp.blocks_allocated

let run_failover w rig rng f ~stop =
  (* the NVRAM log every takeover must replay: staged on the source, no CP *)
  let b = new_batch w in
  generate w rng rig b ~ops:w.nvram_ops ~read_pct:0;
  stage w rig b;
  let logged = Fs.staged_count rig.fs in
  while not (stop f) do
    let t0 = now_ns () in
    let image = Mount.snapshot rig.fs in
    let t1 = now_ns () in
    let fs1, tm1 = Mount.mount ~lazy_rebuild:true image ~with_topaa:true in
    let t2 = now_ns () in
    let r1 = Fs.run_cp fs1 in
    let t3 = now_ns () in
    let fs2, tm2 = Mount.mount image ~with_topaa:false in
    let t4 = now_ns () in
    let r2 = Fs.run_cp fs2 in
    let t5 = now_ns () in
    Samples.add f.snapshot_ms (ms (t1 - t0));
    Samples.add f.call_ms (ms (t2 - t1));
    Samples.add f.first_cp_ms (ms (t3 - t2));
    Samples.add f.ready_ms (ms (t3 - t1));
    Samples.add f.scan_call_ms (ms (t4 - t3));
    Samples.add f.scan_first_cp_ms (ms (t5 - t4));
    Samples.add f.scan_ready_ms (ms (t5 - t3));
    f.cycles <- f.cycles + 1;
    f.topaa <- Some tm1;
    f.scan <- Some tm2;
    check_first_cp "topaa mount" ~logged tm1 r1;
    check_first_cp "full-scan mount" ~logged tm2 r2;
    check_conservation "topaa mount" fs1;
    check_conservation "full-scan mount" fs2
  done;
  logged

(* ---------- set-up ---------- *)

let setup_runs = 5

(* Build, age and warm the rig [setup_runs] times from the same seed;
   returns the last rig and every set-up time in seconds. *)
let setup w ~shrink ~seed =
  let times = Samples.create () in
  let rec go i =
    let t0 = now_ns () in
    let rng = Rng.create ~seed in
    let rig = w.build ~shrink (Rng.split rng) in
    let warm = new_churn () in
    let warm_cps = 20 in
    run_churn w rig (Rng.split rng) warm ~traced:false ~stop:(fun c _ -> c.cps >= warm_cps);
    Samples.add times (float_of_int (now_ns () - t0) /. 1e9);
    if i = setup_runs then (rig, Rng.split rng, times)
    else begin
      Gc.compact ();
      go (i + 1)
    end
  in
  go 1

(* ---------- verification ---------- *)

let used_blocks fs =
  let agg = Fs.aggregate fs in
  Metafile.used_count (Aggregate.metafile agg) ~start:0 ~len:(Aggregate.total_blocks agg)

(* Untimed, after the window: Iron finds nothing beyond the blocks aged
   in place; every staged block was placed; used space moved by exactly
   placed minus freed; free plus used equals total. *)
let verify rig c ~used_before ~settle =
  (match Iron.check rig.fs with
  | [] when rig.orphans = 0 -> ()
  | [ Iron.Orphan_blocks { count } ] when count = rig.orphans -> ()
  | findings ->
    List.iter (fun x -> fail "iron: %s" (Format.asprintf "%a" Iron.pp_finding x)) findings);
  let placed = c.placed + settle.Cp.blocks_allocated in
  let staged = c.staged + settle.Cp.ops in
  if placed <> staged then fail "placement: %d staged, %d placed" staged placed;
  let expect = used_before + placed - c.freed - settle.Cp.pvbns_freed in
  if used_blocks rig.fs <> expect then
    fail "ledger: %d blocks used, expected %d" (used_blocks rig.fs) expect;
  check_conservation "source" rig.fs

(* ---------- output ---------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per n d = ratio (float_of_int n) (float_of_int d)

let print_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
       metrics)

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun w -> w.name = a.workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ a.workload);
      exit 2
  in
  let rig, rng, setup_times = setup w ~shrink:a.shrink ~seed:a.seed in
  let walloc = Fs.write_alloc rig.fs in
  let wa0 =
    ( Write_alloc.candidates_scanned walloc, Write_alloc.words_scanned walloc,
      Write_alloc.vbns_harvested walloc, Write_alloc.aas_taken walloc )
  in
  let take0 = Write_alloc.phys_take_trace walloc in
  let used_before = used_blocks rig.fs in
  let budget = int_of_float (a.seconds *. 1e9) in
  let start = now_ns () in
  let gc0 = Gc.quick_stat () in
  let c = new_churn () in
  let churn_stop =
    match a.fixed_cps with
    | Some n -> fun c _ -> c.cps >= n
    | None ->
      let deadline = start + (budget * 7 / 10) in
      fun _ t -> t >= deadline
  in
  run_churn w rig rng c ~traced:a.trace ~stop:churn_stop;
  let gc1 = Gc.quick_stat () in
  let wa1 =
    ( Write_alloc.candidates_scanned walloc, Write_alloc.words_scanned walloc,
      Write_alloc.vbns_harvested walloc, Write_alloc.aas_taken walloc )
  in
  let take1 = Write_alloc.phys_take_trace walloc in
  let f = new_failover () in
  let failover_stop =
    match a.fixed_mounts with
    | Some n -> fun f -> f.cycles >= max 1 n
    | None ->
      let deadline = start + budget in
      fun f -> f.cycles >= 3 && now_ns () >= deadline
  in
  let logged = run_failover w rig rng f ~stop:failover_stop in
  let settle = Fs.run_cp rig.fs in
  verify rig c ~used_before ~settle;
  if c.failed > 0 then fail "%d block-map reads missed" c.failed;
  let attempted = c.ops + (2 * f.cycles * logged) + logged in
  let correct = !failures = [] in
  List.iter (fun s -> prerr_endline ("check failed: " ^ s)) (List.rev !failures);
  let overhead_pct =
    if c.t_iters = 0 || c.u_iters = 0 then 0.0
    else
      100.0 *. (ratio (per c.u_ops c.u_wall) (per c.t_ops c.t_wall) -. 1.0)
  in
  let metrics =
    if not a.trace then
      [
        ("cp_ms_p99", "ms", Samples.quantile c.cp_ms 0.99);
        ("setup_s", "s", Samples.quantile setup_times 0.5);
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ]
    else begin
      let cand0, words0, harv0, aas0 = wa0 and cand1, words1, harv1, aas1 = wa1 in
      let range0 = (Aggregate.ranges (Fs.aggregate rig.fs)).(0) in
      let full_aa = Wafl_aa.Topology.full_aa_capacity range0.Aggregate.topology in
      let taken = fst take1 - fst take0 and score = snd take1 - snd take0 in
      let topaa = Option.get f.topaa and scan = Option.get f.scan in
      let timed_calls = c.t_gen + c.t_read + c.t_stage + c.t_cp in
      [
        ("fs.stage_ns_per_op", "ns", per c.t_stage c.t_updates);
        ("flexvol.read_ns_per_op", "ns", per c.t_read c.t_reads);
        ("bench.gen_ns_per_op", "ns", per c.t_gen c.t_ops);
        ("cp.ns_per_block", "ns", per c.t_cp c.t_placed);
        ("cp.blocks_per_cp", "count", per c.placed c.cps);
        ("write_alloc.candidates_per_block", "count", per (cand1 - cand0) c.placed);
        ("write_alloc.words_per_block", "count", per (words1 - words0) c.placed);
        ("write_alloc.harvested_per_block", "count", per (harv1 - harv0) c.placed);
        ("write_alloc.aas_taken_per_kblock", "count", 1000.0 *. per (aas1 - aas0) c.placed);
        ("write_alloc.chosen_aa_free_pct", "%", 100.0 *. ratio (per score taken) (float_of_int full_aa));
        ("aacache.work_per_cp", "count", per c.cache_work c.cps);
        ("bitmap.metafile_pages_per_kop", "count", 1000.0 *. per c.metafile_pages c.ops);
        ("bitmap.freed_per_kop", "count", 1000.0 *. per c.freed c.ops);
        ("raid.full_stripe_pct", "%", 100.0 *. per c.full_stripes (c.full_stripes + c.partial_stripes));
        ("raid.chains_per_kblock", "count", 1000.0 *. per c.chains c.dev_blocks);
        ("raid.parity_reads_per_kblock", "count", 1000.0 *. per c.parity_reads c.dev_blocks);
        ("ftl.write_amp", "ratio", per c.device_pages c.host_pages);
        ("ftl.relocated_per_kblock", "count", 1000.0 *. per c.relocated c.host_pages);
        ("ftl.erases_per_kblock", "count", 1000.0 *. per c.erases c.host_pages);
        ("device.modeled_us_per_cp", "us", ratio c.device_us (float_of_int c.cps));
        ("bench.ops_per_s", "1/s", float_of_int c.ops /. (float_of_int c.wall_ns /. 1e9));
        ("cp.ms_p50", "ms", Samples.quantile c.cp_ms 0.5);
        ("mount.ready_ms_p50", "ms", Samples.quantile f.ready_ms 0.5);
        ("mount.scan_ready_ms_p50", "ms", Samples.quantile f.scan_ready_ms 0.5);
        ("mount.snapshot_ms", "ms", Samples.quantile f.snapshot_ms 0.5);
        ("mount.call_ms", "ms", Samples.quantile f.call_ms 0.5);
        ("mount.first_cp_ms", "ms", Samples.quantile f.first_cp_ms 0.5);
        ("mount.scan_call_ms", "ms", Samples.quantile f.scan_call_ms 0.5);
        ("mount.scan_first_cp_ms", "ms", Samples.quantile f.scan_first_cp_ms 0.5);
        ("mount.pages_scanned", "count", float_of_int scan.Mount.metafile_pages_scanned);
        ("mount.topaa_blocks_read", "count", float_of_int topaa.Mount.topaa_blocks_read);
        ("mount.aas_scored", "count", float_of_int scan.Mount.aas_scored);
        ("mount.modeled_ready_us", "us", topaa.Mount.ready_us);
        ("gc.minor_words_per_op", "words", ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (float_of_int c.ops));
        ("gc.promoted_words_per_op", "words",
         ratio (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) (float_of_int c.ops));
        ("gc.major_collections_per_kop", "count",
         1000.0 *. per (gc1.Gc.major_collections - gc0.Gc.major_collections) c.ops);
        ("bench.unattributed_pct", "%", 100.0 *. per (c.t_wall - timed_calls) c.t_wall);
        ("bench.trace_overhead_pct", "%", overhead_pct);
      ]
    end
  in
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"scale\": %S, \"nproc\": %d, \
     \"ocaml\": %S, \"commit\": %S, \"aggregate_blocks\": %d, \"working_set_blocks\": %d, \
     \"ops_per_cp\": %d, \"read_pct\": %d, \"nvram_blocks\": %d, \"setup_runs\": %d, \"cp_samples\": \
     %d, \"failover_cycles\": %d, \"trace_overhead_pct\": %s}}\n"
    w.name a.seed a.trace
    (List.assoc a.shrink [ (1, "quick"); (4, "small"); (8, "tiny") ])
    (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit
    (Aggregate.total_blocks (Fs.aggregate rig.fs))
    rig.working_set w.ops_per_cp w.read_pct logged setup_runs c.cps f.cycles (num overhead_pct);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted
    (if correct then 0 else attempted)
    (print_metrics metrics)
