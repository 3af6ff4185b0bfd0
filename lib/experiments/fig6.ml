open Wafl_util
open Wafl_device
open Wafl_core
open Wafl_sim
open Wafl_workload

type variant = Both | Flexvol_only | Aggregate_only | Neither

let variant_name = function
  | Both -> "both AA caches"
  | Flexvol_only -> "FlexVol AA cache"
  | Aggregate_only -> "Aggregate AA cache"
  | Neither -> "no AA caches"

type result = {
  variant : variant;
  curve : Load.curve;
  phys_chosen_free_frac : float;
  virt_chosen_free_frac : float;
  write_amp : float;
  aggregate_free_frac : float;
}

let policies = function
  | Both -> (Config.Best_aa, Config.Best_aa)
  | Flexvol_only -> (Config.Random_aa, Config.Best_aa)
  | Aggregate_only -> (Config.Best_aa, Config.Random_aa)
  | Neither -> (Config.Random_aa, Config.Random_aa)

(* Churn at least ~2x the working set so no pristine region survives aging
   (the paper ages with "heavy random write traffic for a long period"). *)
let aging_spec scale =
  match (scale : Common.scale) with
  | Common.Quick ->
    { Aging.fill_fraction = 0.55; fragmentation_cps = 120; writes_per_cp = 2500; file = 1 }
  | Common.Full ->
    { Aging.fill_fraction = 0.55; fragmentation_cps = 250; writes_per_cp = 5000; file = 1 }

(* Measurement: steady-state churn long enough to turn dozens of AAs over,
   so the random-policy baseline's AA-quality variance averages out.  One
   window yields the service-time curve, the chosen-AA traces and the FTL
   write amplification together. *)
let measurement scale =
  match (scale : Common.scale) with
  | Common.Quick -> (100, 1250) (* cps, ops per cp *)
  | Common.Full -> (200, 2500)

(* Thin-provisioned volume: slightly larger than the physical space, with
   the AA (= one metafile page) scaled down with the simulation so the
   volume has several hundred metafile pages — far more than one CP's ops,
   which is what makes virtual-VBN colocation measurable (§2.5). *)
let vol_geometry scale ~agg_blocks =
  let aa_blocks = match (scale : Common.scale) with Common.Quick -> 1024 | Common.Full -> 2048 in
  (agg_blocks * 9 / 8, aa_blocks)

let ssd_aa_stripes scale =
  (* erase-block aligned per §3.2.2 — AA sizing is not the variable here;
     one erase block per AA keeps the AA population large at this scale *)
  Wafl_aa.Sizing.ssd_stripes ~erase_blocks_per_aa:1 (Common.ssd_profile scale)

let run_variant ?run scale variant =
  let agg_policy, vol_policy = policies variant in
  let rg = Common.ssd_raid_group scale ~aa_stripes:(Some (ssd_aa_stripes scale)) in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let vol_blocks, vol_aa_blocks = vol_geometry scale ~agg_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "lun"; blocks = vol_blocks; aa_blocks = Some vol_aa_blocks;
            policy = vol_policy } ]
      ~aggregate_policy:agg_policy ?run ~seed:1009 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "lun" in
  let rng = Rng.split (Fs.rng fs) in
  let spec = aging_spec scale in
  let working_set = Aging.age fs vol ~spec ~rng () in
  let walloc = Fs.write_alloc fs in
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let ftl =
    match range0.Aggregate.device with
    | Aggregate.Ssd_sim f -> f
    | Aggregate.Hdd_sim _ | Aggregate.Smr_sim _ | Aggregate.Object_sim _ ->
      invalid_arg "fig6: SSD rig expected"
  in
  Write_alloc.reset_take_stats walloc;
  Ftl.reset_stats ftl;
  let workload = Random_overwrite.create fs vol ~working_set ~rng:(Rng.split rng) () in
  let cps, ops_per_cp = measurement scale in
  let costs =
    Load.measure_service_time ~cps ~ops_per_cp
      ~step:(fun n -> Random_overwrite.step workload n)
      ()
  in
  let write_amp = Ftl.write_amplification ftl in
  let phys_trace = Write_alloc.phys_take_trace walloc in
  let virt_trace = Write_alloc.virt_take_trace walloc in
  let curve = Load.sweep ~label:(variant_name variant) costs in
  let full_phys = Wafl_aa.Topology.full_aa_capacity range0.Aggregate.topology in
  let full_virt = Wafl_aa.Topology.full_aa_capacity (Flexvol.space vol).Space.topology in
  let frac (n, sum) full =
    if n = 0 then 0.0 else float_of_int sum /. float_of_int n /. float_of_int full
  in
  {
    variant;
    curve;
    phys_chosen_free_frac = frac phys_trace full_phys;
    virt_chosen_free_frac = frac virt_trace full_virt;
    write_amp;
    aggregate_free_frac = 1.0 -. Aggregate.used_fraction (Fs.aggregate fs);
  }

let run ?(scale = Common.Quick) ?run () =
  List.map (run_variant ?run scale) [ Both; Flexvol_only; Aggregate_only; Neither ]

let find results v = List.find (fun r -> r.variant = v) results

let print results =
  Common.banner
    "Figure 6: latency vs throughput, AA caches on/off (aged all-SSD, 8KiB random overwrites)";
  Series.print_all ~header:"series: x = throughput (kops/s), y = latency (ms)"
    (List.map (fun r -> Load.to_series r.curve) results);
  List.iter
    (fun r ->
      Common.kv
        (Printf.sprintf "%s:" (variant_name r.variant))
        (Printf.sprintf
           "peak=%.0f ops/s lat@peak=%.2fms phys-AA-free=%.0f%% virt-AA-free=%.0f%% WA=%.2f"
           (Load.peak_throughput r.curve)
           (Load.latency_at_peak_ms r.curve)
           (100.0 *. r.phys_chosen_free_frac)
           (100.0 *. r.virt_chosen_free_frac)
           r.write_amp))
    results;
  let both = find results Both in
  let fv_only = find results Flexvol_only in
  let agg_only = find results Aggregate_only in
  let peak r = Load.peak_throughput r.curve in
  let lat r = Load.latency_at_peak_ms r.curve in
  Printf.printf "\n  --- paper vs measured (aggregate/RAID-aware cache: Both vs FlexVol-only) ---\n";
  Common.paper_vs_measured ~metric:"peak throughput gain"
    ~paper:"+24%"
    ~measured:(Common.pct (peak both) (peak fv_only))
    ~ok:(peak both > peak fv_only);
  Common.paper_vs_measured ~metric:"latency at peak"
    ~paper:"-18%"
    ~measured:(Common.pct (lat both) (lat fv_only))
    ~ok:(lat both < lat fv_only);
  Common.paper_vs_measured ~metric:"chosen AA free space (phys)"
    ~paper:"61% vs 46% random"
    ~measured:
      (Printf.sprintf "%.0f%% vs %.0f%%" (100.0 *. both.phys_chosen_free_frac)
         (100.0 *. fv_only.phys_chosen_free_frac))
    ~ok:(both.phys_chosen_free_frac > fv_only.phys_chosen_free_frac);
  Common.paper_vs_measured ~metric:"SSD write amplification"
    ~paper:"1.77 -> 1.46"
    ~measured:(Printf.sprintf "%.2f -> %.2f" fv_only.write_amp both.write_amp)
    ~ok:(both.write_amp < fv_only.write_amp);
  Printf.printf "\n  --- paper vs measured (FlexVol/HBPS cache: Both vs Aggregate-only) ---\n";
  Common.paper_vs_measured ~metric:"peak throughput gain"
    ~paper:"+8.0%"
    ~measured:(Common.pct (peak both) (peak agg_only))
    ~ok:(peak both > peak agg_only);
  Common.paper_vs_measured ~metric:"latency at peak"
    ~paper:"-8.6%"
    ~measured:(Common.pct (lat both) (lat agg_only))
    ~ok:(lat both < lat agg_only);
  Common.paper_vs_measured ~metric:"chosen AA free space (virt)"
    ~paper:"78% vs 61% random"
    ~measured:
      (Printf.sprintf "%.0f%% vs %.0f%%" (100.0 *. both.virt_chosen_free_frac)
         (100.0 *. agg_only.virt_chosen_free_frac))
    ~ok:(both.virt_chosen_free_frac > agg_only.virt_chosen_free_frac);
  Common.paper_vs_measured ~metric:"CPU per op (vol cache effect)"
    ~paper:"293 vs 309 usec/op (-5.7%)"
    ~measured:
      (Printf.sprintf "%.0f vs %.0f usec/op (%s)" both.curve.Load.cpu_us_per_op
         agg_only.curve.Load.cpu_us_per_op
         (Common.pct both.curve.Load.cpu_us_per_op agg_only.curve.Load.cpu_us_per_op))
    ~ok:(both.curve.Load.cpu_us_per_op <= agg_only.curve.Load.cpu_us_per_op)
