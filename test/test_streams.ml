(* Tests for write-temperature segregation: SepBIT-style classification
   (lib/core/temperature.ml), class-routed allocation rows over shared
   claim flags, wear-demoted cache scores, and the end-to-end CP plumbing
   that tags FTL batches with their stream. *)

open Wafl_bitmap
open Wafl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cls_t : Temperature.cls Alcotest.testable =
  Alcotest.testable (Fmt.of_to_string Temperature.cls_name) ( = )

let check_cls = Alcotest.check cls_t

(* --- classification --- *)

let test_classify_fresh_and_meta () =
  let t = Temperature.create ~meta_file:7 ~classes:4 () in
  check_cls "fresh write is warm" Temperature.Warm
    (Temperature.classify t ~uid:1 ~blocks:1024 ~file:3 ~prev:None);
  check_cls "metafile override beats inference" Temperature.Meta
    (Temperature.classify t ~uid:1 ~blocks:1024 ~file:7 ~prev:(Some 5));
  check_cls "unknown birth is warm" Temperature.Warm
    (Temperature.classify t ~uid:1 ~blocks:1024 ~file:3 ~prev:(Some 5));
  check_cls "out-of-range prev is warm" Temperature.Warm
    (Temperature.classify t ~uid:1 ~blocks:1024 ~file:3 ~prev:(Some 99999));
  check_int "meta decisions counted" 1 (Temperature.classified t Temperature.Meta);
  check_int "warm decisions counted" 3 (Temperature.classified t Temperature.Warm)

let test_classify_hot_vs_cold () =
  let t = Temperature.create ~classes:4 () in
  let uid = 1 and blocks = 4096 in
  (* killed one CP after birth: lifespan 1 <= starting average (8) -> Hot *)
  Temperature.note_birth t ~uid ~blocks ~vvbn:10;
  Temperature.advance_cp t;
  check_cls "short lifespan is hot" Temperature.Hot
    (Temperature.classify t ~uid ~blocks ~file:1 ~prev:(Some 10));
  (* killed 200 CPs after birth: far beyond 4x the average -> Cold *)
  Temperature.note_birth t ~uid ~blocks ~vvbn:20;
  for _ = 1 to 200 do
    Temperature.advance_cp t
  done;
  check_cls "long lifespan is cold" Temperature.Cold
    (Temperature.classify t ~uid ~blocks ~file:1 ~prev:(Some 20));
  (match Temperature.avg_lifespan t ~uid with
  | Some avg -> check_bool "EWMA moved toward the samples" true (avg > 1.0)
  | None -> Alcotest.fail "volume should be tracked")

let test_class_slot_collapse () =
  check_int "1 class: everything slot 0" 0
    (Temperature.class_slot Temperature.Cold ~classes:1);
  check_int "2 classes: hot alone" 0 (Temperature.class_slot Temperature.Hot ~classes:2);
  check_int "2 classes: meta with the rest" 1
    (Temperature.class_slot Temperature.Meta ~classes:2);
  check_int "3 classes: warm in the middle" 1
    (Temperature.class_slot Temperature.Warm ~classes:3);
  check_int "3 classes: cold with meta" 2
    (Temperature.class_slot Temperature.Cold ~classes:3);
  check_int "4 classes: meta distinct" 3
    (Temperature.class_slot Temperature.Meta ~classes:4)

(* Steady skew must classify stably: blocks rewritten every CP keep
   reading Hot once the EWMA has seen them, and blocks rewritten every
   50 CPs never read Hot (they read Cold while the average is low). *)
let test_temperature_stability_under_skew () =
  let t = Temperature.create ~classes:4 () in
  let uid = 9 and blocks = 1000 in
  let hot = Array.init 20 Fun.id in
  let cold = Array.init 20 (fun i -> 900 + i) in
  let warmup = 60 in
  let hot_misclassified = ref 0
  and cold_hot = ref 0
  and cold_cold = ref 0 in
  for cp = 1 to 200 do
    Array.iter
      (fun v ->
        let c = Temperature.classify t ~uid ~blocks ~file:1 ~prev:(Some v) in
        if cp > warmup && c <> Temperature.Hot then incr hot_misclassified;
        Temperature.note_birth t ~uid ~blocks ~vvbn:v)
      hot;
    if cp mod 50 = 0 then
      Array.iter
        (fun v ->
          (match Temperature.classify t ~uid ~blocks ~file:1 ~prev:(Some v) with
          | Temperature.Hot -> if cp > warmup then incr cold_hot
          | Temperature.Cold -> if cp > warmup then incr cold_cold
          | Temperature.Warm | Temperature.Meta -> ());
          Temperature.note_birth t ~uid ~blocks ~vvbn:v)
        cold;
    Temperature.advance_cp t
  done;
  check_int "every-CP rewrites always classify hot after warmup" 0 !hot_misclassified;
  check_int "slow rewrites never classify hot" 0 !cold_hot;
  check_bool "slow rewrites do classify cold" true (!cold_cold > 0)

(* --- wear-demoted cache scores --- *)

let test_wear_adjusted_scoring () =
  let q = Wafl_aa.Score.wear_quantum in
  check_int "bias 0 is identity" 500
    (Wafl_aa.Score.wear_adjusted ~bias:0 ~wear:(10 * q) ~min_wear:0 ~score:500);
  check_int "at the device minimum nothing is demoted" 500
    (Wafl_aa.Score.wear_adjusted ~bias:2 ~wear:(3 * q) ~min_wear:(3 * q) ~score:500);
  check_int "one quantum above minimum demotes by bias" 498
    (Wafl_aa.Score.wear_adjusted ~bias:2 ~wear:q ~min_wear:0 ~score:500);
  check_int "positive scores never demote below 1" 1
    (Wafl_aa.Score.wear_adjusted ~bias:100 ~wear:(50 * q) ~min_wear:0 ~score:5)

(* --- class-routed allocation rows --- *)

(* Two RAID groups with 4 temperature classes configured. *)
let routed_config () =
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
    ~run:
      { Config.default_run with
        Config.streams =
          { Config.temp_classes = 4; ssd_streams = 1; wear_bias = 0; meta_file = None } }
    ~seed:7 ()

(* Within one CP, no two class rows may ever fill the same AA: each row
   claims its AAs through the shared per-AA claim flags. *)
let test_routed_rows_disjoint_aas () =
  let fs = Fs.create (routed_config ()) in
  let wa = Fs.write_alloc fs in
  check_int "temp classes" 4 (Write_alloc.temp_classes wa);
  let agg = Fs.aggregate fs in
  let dst = Array.make 2048 0 in
  let aas_of_cls c =
    let n = Write_alloc.allocate_pvbns_into ~cls:c wa ~dst 2048 in
    check_bool "row allocated" true (n > 0);
    let s = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let r = Aggregate.range_of_pvbn agg dst.(i) in
      let local = Aggregate.to_local r dst.(i) in
      Hashtbl.replace s
        (r.Aggregate.index, Wafl_aa.Topology.aa_of_vbn r.Aggregate.topology local)
        ()
    done;
    s
  in
  let sets = List.init 4 aas_of_cls in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if i < j then
            Hashtbl.iter
              (fun key () ->
                check_bool
                  (Printf.sprintf "AA shared by class %d and %d" i j)
                  false (Hashtbl.mem sj key))
              si)
        sets)
    sets

(* The routed consume window: after a warm-up call fills each class
   row's harvest ring, the next call on every row allocates no minor-heap
   words. *)
let test_routed_consume_zero_alloc () =
  let wa = Fs.write_alloc (Fs.create (routed_config ())) in
  let dst = Array.make 256 0 in
  (* [?cls] boxing would charge 2 minor words per call to the window;
     pre-build the options so only the allocator itself is measured *)
  let cls_opts = Array.init 4 (fun c -> Some c) in
  let consume () =
    for c = 0 to 3 do
      ignore (Write_alloc.allocate_pvbns_into ?cls:cls_opts.(c) wa ~dst 256)
    done
  in
  consume ();
  let before = Gc.minor_words () in
  consume ();
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "4 class rows served from their rings allocate nothing (%.0f words)" words)
    true (words = 0.0)

(* Routed fill to capacity: cycling the four class rows must drain every
   allocatable block exactly once.  Blocks left in another row's ring stay
   free but their AA stays claimed by that row, so a routed fill
   legitimately needs CP boundaries to finish: when every row runs dry,
   cp_finish refiles the taken AAs and the next pass reaches the remainder
   (exactly how the real system operates). *)
let fill_routed fs =
  let wa = Fs.write_alloc fs in
  let agg = Fs.aggregate fs in
  let dst = Array.make 4096 0 in
  let out = ref [] in
  let drain () =
    let chunks0 = List.length !out in
    let rec go c dry =
      if dry < 4 then begin
        let got = Write_alloc.allocate_pvbns_into ~cls:(c mod 4) wa ~dst 4096 in
        if got > 0 then begin
          out := Array.sub dst 0 got :: !out;
          go (c + 1) 0
        end
        else go (c + 1) (dry + 1)
      end
    in
    go 0 0;
    List.length !out > chunks0
  in
  let rec loop () =
    let progressed = drain () in
    if Aggregate.free_blocks agg > 0 && progressed then begin
      Write_alloc.cp_finish wa;
      loop ()
    end
  in
  loop ();
  Array.concat (List.rev !out)

let check_all_distinct label pvbns =
  let sorted = Array.copy pvbns in
  Array.sort compare sorted;
  let dup = ref false in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then dup := true
  done;
  check_bool (label ^ ": no pvbn handed out twice") false !dup

let test_routed_fill_drains_once () =
  let fs = Fs.create (routed_config ()) in
  let pv = fill_routed fs in
  check_int "routed fill drains the aggregate" 0 (Aggregate.free_blocks (Fs.aggregate fs));
  check_all_distinct "routed fill" pv

(* --- end to end: classes to FTL streams through real CPs --- *)

let test_streams_end_to_end () =
  let profile =
    { Wafl_device.Profile.default_ssd with
      Wafl_device.Profile.erase_block_blocks = 64;
      overprovision = 0.1
    }
  in
  let rg =
    {
      Config.media = Config.Ssd profile;
      data_devices = 2;
      parity_devices = 1;
      device_blocks = 4096;
      aa_stripes = Some 32;
    }
  in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:[ Config.default_vol ~name:"v" ~blocks:8192 ]
      ~aggregate_policy:Config.Best_aa
      ~run:
        { Config.default_run with
          Config.streams =
            { Config.temp_classes = 4; ssd_streams = 4; wear_bias = 2; meta_file = Some 0 } }
      ~seed:42 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "v" in
  let aspec =
    { Wafl_workload.Aging.fill_fraction = 0.5; fragmentation_cps = 0; writes_per_cp = 0; file = 1 }
  in
  let working_set = Wafl_workload.Aging.fill fs vol aspec in
  let churn =
    Wafl_workload.Random_overwrite.create fs vol ~working_set ~blocks_per_op:1 ~file:1
      ~hot_fraction:0.1 ~hot_weight:0.9 ~rng:(Wafl_util.Rng.create ~seed:11) ()
  in
  for cp = 0 to 29 do
    (* metadata trickle on file 0, routed to the Meta class/stream *)
    for k = 0 to 7 do
      Fs.stage_write fs ~vol ~file:0 ~offset:(((cp * 8) + k) mod 128)
    done;
    ignore (Wafl_workload.Random_overwrite.step churn 200)
  done;
  (match Fs.temperature fs with
  | None -> Alcotest.fail "temperature tracking should be on"
  | Some t ->
    check_int "4 classes configured" 4 (Temperature.classes t);
    check_bool "hot decisions seen" true (Temperature.classified t Temperature.Hot > 0);
    check_bool "meta decisions seen" true (Temperature.classified t Temperature.Meta > 0));
  let ftl =
    match (Aggregate.ranges (Fs.aggregate fs)).(0).Aggregate.device with
    | Aggregate.Ssd_sim f -> f
    | _ -> Alcotest.fail "SSD range expected"
  in
  check_int "4 FTL streams" 4 (Wafl_device.Ftl.streams ftl);
  let active =
    List.length
      (List.filter
         (fun s ->
           (Wafl_device.Ftl.stream_stats ftl s).Wafl_device.Ftl.host_pages_written > 0)
         (List.init 4 Fun.id))
  in
  check_bool "traffic reaches more than one stream" true (active >= 2);
  let _, max_wear = Wafl_device.Ftl.wear_spread ftl in
  check_bool "erases recorded as wear" true (max_wear >= 1)

(* --- CP outputs pinned at one and three classes ---

   A CP places, commits and flushes by one code path whatever the class
   count; these per-CP facts were measured on the separate
   routed and unrouted placement loops that path replaced, so the one
   path reproduces both.  Two SSD RAID groups and two volumes put more
   than one range and volume behind every per-range and per-volume
   stage. *)

let pin_config ~classes ~streams =
  let profile =
    { Wafl_device.Profile.default_ssd with
      Wafl_device.Profile.erase_block_blocks = 64;
      overprovision = 0.1
    }
  in
  let rg =
    {
      Config.media = Config.Ssd profile;
      data_devices = 2;
      parity_devices = 1;
      device_blocks = 4096;
      aa_stripes = Some 32;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Config.default_vol ~name:"a" ~blocks:4096; Config.default_vol ~name:"b" ~blocks:4096 ]
    ~aggregate_policy:Config.Best_aa
    ~run:
      { Config.default_run with
        Config.streams =
          { Config.temp_classes = classes; ssd_streams = streams; wear_bias = 0; meta_file = Some 0 } }
    ~seed:5 ()

(* Order-sensitive digest of the aggregate activemap's allocated bits. *)
let activemap_digest fs =
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  let h = ref 0 in
  for vbn = 0 to Metafile.blocks mf - 1 do
    if Metafile.is_allocated mf vbn then h := ((!h * 1_000_003) + vbn) land 0x3FFF_FFFF
  done;
  !h

(* One line per CP: blocks allocated, pvbns and vvbns freed, aggregate
   and volume metafile pages, then per device and stream the FTL's host
   pages written / pages relocated, then the activemap digest. *)
let pinned_cps ~classes ~streams =
  let fs = Fs.create (pin_config ~classes ~streams) in
  let vols = Fs.vols fs in
  Array.iter
    (fun vol ->
      for off = 0 to 2047 do
        Fs.stage_write fs ~vol ~file:1 ~offset:off
      done)
    vols;
  ignore (Fs.run_cp fs);
  let rng = Wafl_util.Rng.create ~seed:23 in
  List.init 10 (fun cp ->
      Array.iter
        (fun vol ->
          for k = 0 to 3 do
            Fs.stage_write fs ~vol ~file:0 ~offset:(((cp * 4) + k) mod 64)
          done;
          for _ = 1 to 400 do
            (* a skewed overwrite stream: a hot eighth takes most writes *)
            let off =
              if Wafl_util.Rng.int rng 4 > 0 then Wafl_util.Rng.int rng 256
              else Wafl_util.Rng.int rng 2048
            in
            Fs.stage_write fs ~vol ~file:1 ~offset:off
          done)
        vols;
      let r = Fs.run_cp fs in
      let devices =
        List.map
          (fun (d : Cp.device_report) ->
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun (s : Wafl_device.Ftl.stats) ->
                      Printf.sprintf "%d/%d" s.Wafl_device.Ftl.host_pages_written
                        s.Wafl_device.Ftl.relocated_pages)
                    d.Cp.ssd_stream_stats)))
          r.Cp.devices
      in
      Printf.sprintf "%d %d %d %d %d | %s | %d" r.Cp.blocks_allocated r.Cp.pvbns_freed
        r.Cp.vvbns_freed r.Cp.agg_metafile_pages r.Cp.vol_metafile_pages
        (String.concat " " devices) (activemap_digest fs))

let pinned_one_class =
  [
    "552 544 544 1 2 | 276/0 276/0 | 919442637";
    "545 537 537 1 2 | 273/0 272/0 | 1062110821";
    "557 549 549 1 2 | 279/0 278/0 | 218939693";
    "527 519 519 1 2 | 264/4 263/0 | 733844429";
    "545 537 537 1 2 | 273/3 272/0 | 977288939";
    "549 541 541 1 2 | 275/0 274/0 | 311522245";
    "568 560 560 1 2 | 284/11 284/0 | 35429338";
    "546 538 538 1 2 | 274/0 272/0 | 833297536";
    "536 528 528 1 2 | 269/0 267/0 | 164346835";
    "541 533 533 1 2 | 271/0 270/0 | 148769119";
  ]

let pinned_three_classes =
  [
    "552 544 544 1 2 | 272/0,0/0,4/0,0/0 272/0,0/0,4/0,0/0 | 977614093";
    "545 537 537 1 2 | 134/0,135/0,4/0,0/0 133/0,135/0,4/0,0/0 | 180811741";
    "557 549 549 1 2 | 150/0,125/0,4/0,0/0 150/0,124/0,4/0,0/0 | 313077572";
    "527 519 519 1 2 | 159/4,102/0,4/0,0/0 157/0,101/0,4/0,0/0 | 35245875";
    "545 537 537 1 2 | 170/26,99/1,4/30,0/0 169/0,99/0,4/0,0/0 | 1050154194";
    "549 541 541 1 2 | 173/0,98/0,5/0,0/0 172/0,96/0,5/0,0/0 | 897300350";
    "568 560 560 1 2 | 185/9,94/0,5/0,0/0 185/0,94/0,5/0,0/0 | 8134751";
    "546 538 538 1 2 | 181/24,86/0,7/0,0/0 181/0,84/0,7/0,0/0 | 804604361";
    "536 528 528 1 2 | 180/0,81/0,8/0,0/0 180/0,80/0,7/49,0/0 | 801849802";
    "541 533 533 1 2 | 188/21,68/25,16/0,0/0 187/0,67/0,15/0,0/0 | 557857053";
  ]

let test_cp_outputs_pinned () =
  List.iter
    (fun (classes, streams, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%d classes, %d streams" classes streams)
        want
        (pinned_cps ~classes ~streams))
    [ (1, 1, pinned_one_class); (3, 4, pinned_three_classes) ]

(* --- placement pinned over mixed batches ---

   Three volumes, three files each, with every CP's writes interleaved
   across volumes and files (runs of one file and runs of several); a
   snapshot taken mid-run on two volumes, so their overwrites detach
   instead of freeing, and one of them deleted later; new offsets keep
   arriving until the aggregate is full and reserved VVBNs are handed
   back.  After each CP the line hashes every file map, container map,
   the aggregate and volume activemaps, their free queues in queue order
   (commit order feeds the score deltas), and the report's counts. *)

let mixed_config ~classes =
  let profile =
    { Wafl_device.Profile.default_ssd with
      Wafl_device.Profile.erase_block_blocks = 64;
      overprovision = 0.1
    }
  in
  let rg =
    {
      Config.media = Config.Ssd profile;
      data_devices = 2;
      parity_devices = 1;
      device_blocks = 1024;
      aa_stripes = Some 32;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:(List.map (fun name -> Config.default_vol ~name ~blocks:4096) [ "a"; "b"; "c" ])
    ~aggregate_policy:Config.Best_aa
    ~run:
      { Config.default_run with
        Config.streams =
          { Config.temp_classes = classes; ssd_streams = 4; wear_bias = 0; meta_file = Some 2 } }
    ~seed:11 ()

let mix h x = ((h * 1_000_003) + x + 1) land 0x3FFF_FFFF

let metafile_hash mf =
  let h = ref 0 in
  for vbn = 0 to Metafile.blocks mf - 1 do
    if Metafile.is_allocated mf vbn then h := mix !h vbn
  done;
  !h

let max_offset = 1200

let queue_hash am = Array.fold_left mix 0 (Activemap.freed am)

let mixed_line fs (r : Cp.report) =
  let agg = Fs.aggregate fs in
  let files = ref 0 and containers = ref 0 and vol_maps = ref 0 in
  let queues = ref (queue_hash (Aggregate.activemap agg)) in
  Array.iter
    (fun vol ->
      for file = 0 to 2 do
        for offset = 0 to max_offset - 1 do
          match Flexvol.read_file vol ~file ~offset with
          | Some vvbn -> files := mix (mix !files offset) vvbn
          | None -> ()
        done
      done;
      for vvbn = 0 to Flexvol.blocks vol - 1 do
        match Flexvol.pvbn_of_vvbn vol vvbn with
        | Some pvbn -> containers := mix (mix !containers vvbn) pvbn
        | None -> ()
      done;
      vol_maps := mix !vol_maps (metafile_hash (Flexvol.metafile vol));
      queues := mix !queues (queue_hash (Flexvol.activemap vol)))
    (Fs.vols fs);
  Printf.sprintf "%d %d %d %d %d %d | %d %d %d %d %d" r.Cp.ops r.Cp.blocks_allocated
    r.Cp.pvbns_freed r.Cp.vvbns_freed r.Cp.agg_metafile_pages r.Cp.vol_metafile_pages !files
    !containers
    (metafile_hash (Aggregate.metafile agg))
    !vol_maps !queues

let mixed_cps ~classes =
  let fs = Fs.create (mixed_config ~classes) in
  let vols = Fs.vols fs in
  let rng = Wafl_util.Rng.create ~seed:31 in
  let snap = ref None in
  List.init 12 (fun cp ->
      if cp = 4 then begin
        snap := Some (Fs.create_snapshot fs ~vol:vols.(0));
        ignore (Fs.create_snapshot fs ~vol:vols.(1))
      end;
      (if cp = 9 then
         match !snap with
         | Some id -> ignore (Fs.delete_snapshot fs ~vol:vols.(0) id)
         | None -> ());
      (* each file grows by 60 offsets a CP; a round stages one write
         to every (volume, file) pair, or a run of four to one of them *)
      let top = min max_offset (60 * (cp + 1)) in
      for round = 0 to 79 do
        if round mod 5 = 4 then begin
          let vol = vols.(Wafl_util.Rng.int rng 3) and file = Wafl_util.Rng.int rng 3 in
          let start = Wafl_util.Rng.int rng (top - 4) in
          for k = 0 to 3 do
            Fs.stage_write fs ~vol ~file ~offset:(start + k)
          done
        end
        else
          Array.iter
            (fun vol ->
              for file = 0 to 2 do
                let offset =
                  if round < 60 then top - 60 + round else Wafl_util.Rng.int rng top
                in
                Fs.stage_write fs ~vol ~file ~offset
              done)
            vols
      done;
      mixed_line fs (Fs.run_cp fs))

(* Measured on the per-block placement loop the gather passes replaced.
   The queue column of the last three CPs follows the snapshot delete at
   CP 9, which queues its releases in ascending VVBN order. *)
let mixed_one_class =
  [
    "467 467 0 0 1 3 | 680303682 842248273 295732705 525299695 257741005";
    "537 537 81 81 1 3 | 56427049 965756268 897736779 293298984 975325744";
    "571 571 112 112 1 3 | 787090148 750636856 131856004 569656473 70250091";
    "590 590 131 131 1 3 | 901537488 92719482 150762034 943937233 423667242";
    "589 589 42 42 1 3 | 550578138 883883885 697998294 18792060 694095652";
    "589 589 64 64 1 3 | 138434235 137587532 91836363 296259262 744759014";
    "601 601 88 88 1 3 | 802570165 114903065 278892727 205809061 987189832";
    "618 618 110 110 1 3 | 41028239 244272178 697205516 85055063 186889045";
    "623 162 11 11 1 3 | 368165392 682567176 106944275 498871668 24392965";
    "612 11 137 0 1 3 | 740706667 1026675761 936622592 791382896 539024561";
    "620 137 4 4 1 3 | 252786525 316291244 699103669 610914376 522823130";
    "624 4 0 0 1 3 | 186709198 356716123 521496576 154102738 497583195";
  ]

let mixed_three_classes =
  [
    "467 467 0 0 1 3 | 680303682 790501895 62051959 525299695 257741005";
    "537 537 81 81 1 3 | 56427049 450748785 465829740 293298984 347238125";
    "571 571 112 112 1 3 | 787090148 174202010 81450056 569656473 488511591";
    "590 590 131 131 1 3 | 901537488 170002928 540544492 943937233 448501250";
    "589 589 42 42 1 3 | 550578138 59141719 603429314 18792060 665911946";
    "589 589 64 64 1 3 | 138434235 1010283994 358490103 296259262 38772481";
    "601 601 88 88 1 3 | 802570165 434407872 962922592 205809061 711210717";
    "618 618 110 110 1 3 | 41028239 237472713 826966255 85055063 919378332";
    "623 156 43 43 1 3 | 886671562 1024004344 986531202 937347369 804579809";
    "612 49 164 22 1 3 | 942265571 63335953 257255239 880290839 483259851";
    "620 164 38 38 1 3 | 567831373 325832046 505668484 57849087 368708228";
    "624 38 21 21 1 3 | 690828357 73710952 632148417 344604790 243919935";
  ]

let test_mixed_batches_pinned () =
  List.iter
    (fun (classes, want) ->
      Alcotest.(check (list string)) (Printf.sprintf "%d classes" classes) want (mixed_cps ~classes))
    [ (1, mixed_one_class); (3, mixed_three_classes) ]


let () =
  Alcotest.run "wafl_streams"
    [
      ( "temperature",
        [
          Alcotest.test_case "fresh and meta" `Quick test_classify_fresh_and_meta;
          Alcotest.test_case "hot vs cold" `Quick test_classify_hot_vs_cold;
          Alcotest.test_case "class slots" `Quick test_class_slot_collapse;
          Alcotest.test_case "stability under skew" `Quick
            test_temperature_stability_under_skew;
        ] );
      ( "scoring",
        [ Alcotest.test_case "wear-adjusted" `Quick test_wear_adjusted_scoring ] );
      ( "routing",
        [
          Alcotest.test_case "class rows take disjoint AAs" `Quick
            test_routed_rows_disjoint_aas;
          Alcotest.test_case "routed fill drains every block once" `Quick
            test_routed_fill_drains_once;
          Alcotest.test_case "consume window zero-alloc" `Quick test_routed_consume_zero_alloc;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "classes reach FTL streams" `Quick test_streams_end_to_end;
          Alcotest.test_case "cp outputs pinned at 1 and 3 classes" `Quick
            test_cp_outputs_pinned;
          Alcotest.test_case "placement pinned over mixed batches" `Quick
            test_mixed_batches_pinned;
        ] );
    ]
