open Wafl_util
open Wafl_device
open Wafl_core
open Wafl_sim
open Wafl_workload

type sizing = Small_hdd_aa | Large_ssd_aa

let sizing_name = function
  | Small_hdd_aa -> "HDD-sized AA (4k stripes)"
  | Large_ssd_aa -> "erase-block AA"

type result = {
  sizing : sizing;
  aa_stripes : int;
  erase_block_aligned : bool;
  curve : Load.curve;
  write_amp : float;
}

let aa_stripes_of scale sizing =
  let profile = Common.ssd_profile scale in
  match sizing with
  | Small_hdd_aa ->
    (* the historical default, scaled with the rig: a quarter of an erase
       block, as in Figure 4 (A) *)
    profile.Profile.erase_block_blocks / 4
  | Large_ssd_aa -> Wafl_aa.Sizing.ssd_stripes ~erase_blocks_per_aa:1 profile

let measurement scale =
  match (scale : Common.scale) with
  | Common.Quick -> (100, 1000) (* cps, ops (1 block each) per cp *)
  | Common.Full -> (200, 2000)

let aging_spec scale =
  match (scale : Common.scale) with
  | Common.Quick ->
    { Aging.fill_fraction = 0.85; fragmentation_cps = 120; writes_per_cp = 2000; file = 1 }
  | Common.Full ->
    { Aging.fill_fraction = 0.85; fragmentation_cps = 250; writes_per_cp = 4000; file = 1 }

let run_sizing ?run scale sizing =
  let aa_stripes = aa_stripes_of scale sizing in
  let rg = Common.ssd_raid_group scale ~aa_stripes:(Some aa_stripes) in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "lun"; blocks = agg_blocks * 9 / 8; aa_blocks = Some 1024;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?run ~seed:8009 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "lun" in
  let rng = Rng.split (Fs.rng fs) in
  let working_set = Aging.age fs vol ~spec:(aging_spec scale) ~rng () in
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let ftl =
    match range0.Aggregate.device with
    | Aggregate.Ssd_sim f -> f
    | Aggregate.Hdd_sim _ | Aggregate.Smr_sim _ | Aggregate.Object_sim _ ->
      invalid_arg "fig8: SSD rig expected"
  in
  Ftl.reset_stats ftl;
  (* 4KiB random overwrites: one block per op (§4.3's read/write mix's
     write half; reads do not change allocation behaviour) *)
  let workload =
    Random_overwrite.create fs vol ~working_set ~blocks_per_op:1 ~rng:(Rng.split rng) ()
  in
  let cps, ops_per_cp = measurement scale in
  let costs =
    Load.measure_service_time ~cps ~ops_per_cp
      ~step:(fun n -> Random_overwrite.step workload n)
      ()
  in
  {
    sizing;
    aa_stripes;
    erase_block_aligned =
      Wafl_aa.Sizing.is_erase_block_aligned ~aa_stripes (Common.ssd_profile scale);
    curve = Load.sweep ~label:(sizing_name sizing) costs;
    write_amp = Ftl.write_amplification ftl;
  }

let run ?(scale = Common.Quick) ?run () = List.map (run_sizing ?run scale) [ Small_hdd_aa; Large_ssd_aa ]

let find results s = List.find (fun r -> r.sizing = s) results

let print results =
  Common.banner
    "Figure 8: latency vs throughput, HDD-sized AA vs erase-block AA (all-SSD aged to 85%)";
  Series.print_all ~header:"series: x = throughput (kops/s), y = latency (ms)"
    (List.map (fun r -> Load.to_series r.curve) results);
  List.iter
    (fun r ->
      Common.kv
        (Printf.sprintf "%s:" (sizing_name r.sizing))
        (Printf.sprintf "aa_stripes=%d aligned=%b peak=%.0f ops/s lat@peak=%.2fms WA=%.2f"
           r.aa_stripes r.erase_block_aligned
           (Load.peak_throughput r.curve)
           (Load.latency_at_peak_ms r.curve)
           r.write_amp))
    results;
  let small = find results Small_hdd_aa and large = find results Large_ssd_aa in
  let peak r = Load.peak_throughput r.curve and lat r = Load.latency_at_peak_ms r.curve in
  Printf.printf "\n";
  Common.paper_vs_measured ~metric:"peak throughput gain (large AA)"
    ~paper:"+26%"
    ~measured:(Common.pct (peak large) (peak small))
    ~ok:(peak large > peak small);
  Common.paper_vs_measured ~metric:"latency at peak"
    ~paper:"-21%"
    ~measured:(Common.pct (lat large) (lat small))
    ~ok:(lat large < lat small);
  Common.paper_vs_measured ~metric:"write amplification"
    ~paper:"halved"
    ~measured:(Printf.sprintf "%.2f -> %.2f (%.0f%% of small-AA WA)" small.write_amp
                 large.write_amp
                 (100.0 *. large.write_amp /. small.write_amp))
    ~ok:(large.write_amp < small.write_amp)
