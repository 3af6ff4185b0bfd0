open Wafl_device
open Wafl_core
open Wafl_sim
open Wafl_workload

type sizing = Hdd_aa | Azcs_aligned_aa

let sizing_name = function
  | Hdd_aa -> "HDD-sized AA (unaligned)"
  | Azcs_aligned_aa -> "AZCS-aligned AA"

type result = {
  sizing : sizing;
  aa_stripes : int;
  azcs_aligned : bool;
  curve : Load.curve;
  blocks_written : int;
  device_time_s : float;
  drive_throughput_blocks_per_s : float;
  random_checksum_writes : int;
  sequential_fraction : float;
}

let aa_stripes_of scale sizing =
  match sizing with
  | Hdd_aa -> ( match (scale : Common.scale) with Common.Quick -> 4096 | Common.Full -> 4096)
  | Azcs_aligned_aa ->
    Wafl_aa.Sizing.smr_stripes ~zones_per_aa:2 ~azcs:true (Common.smr_profile scale)

(* Perturb the cached AA scores by a few blocks so the allocator's switches
   jump around the number space, as they do on any production system where
   AAs never tie exactly (metadata, reserves, other volumes).  The blocks
   themselves stay free — only the pick order changes. *)
let perturb_scores fs ~rng =
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let noisy =
    Array.map (fun s -> max 0 (s - Wafl_util.Rng.int rng 8)) range0.Aggregate.space.Space.scores
  in
  range0.Aggregate.space.Space.cache <-
    Some
      (Wafl_aacache.Cache.make ~space:range0.Aggregate.index
         (Wafl_aacache.Cache.Raid_aware (Wafl_aacache.Max_heap.of_scores noisy)))

let measurement scale =
  match (scale : Common.scale) with
  | Common.Quick -> (40, 2000) (* cps, blocks per cp *)
  | Common.Full -> (80, 4000)

let run_sizing ?run scale sizing =
  let aa_stripes = aa_stripes_of scale sizing in
  let rg = Common.smr_raid_group scale ~aa_stripes:(Some aa_stripes) in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "seq"; blocks = agg_blocks; aa_blocks = None;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?run ~seed:9001 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "seq" in
  perturb_scores fs ~rng:(Wafl_util.Rng.split (Fs.rng fs));
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let smr, _tracker =
    match range0.Aggregate.device with
    | Aggregate.Smr_sim (s, tr) -> (s, tr)
    | Aggregate.Hdd_sim _ | Aggregate.Ssd_sim _ | Aggregate.Object_sim _ ->
      invalid_arg "fig9: SMR rig expected"
  in
  let workload = Sequential.create fs vol () in
  let cps, blocks_per_cp = measurement scale in
  let random_cs = ref 0 in
  let reports = ref [] in
  for _ = 1 to cps do
    let r = Sequential.step workload blocks_per_cp in
    random_cs :=
      !random_cs
      + List.fold_left (fun acc d -> acc + d.Cp.smr_random_checksum_writes) 0 r.Cp.devices;
    reports := r :: !reports
  done;
  let costs = Wafl_sim.Cost_model.combine (List.map Cost_model.of_report !reports) in
  let stats = Smr.stats smr in
  let total_writes = stats.Smr.sequential_writes + stats.Smr.random_writes in
  {
    sizing;
    aa_stripes;
    azcs_aligned = Wafl_aa.Sizing.is_azcs_aligned ~aa_stripes;
    curve = Load.sweep ~label:(sizing_name sizing) costs;
    blocks_written = stats.Smr.blocks_written;
    device_time_s = stats.Smr.total_us *. 1e-6;
    drive_throughput_blocks_per_s =
      float_of_int stats.Smr.blocks_written /. (stats.Smr.total_us *. 1e-6);
    random_checksum_writes = !random_cs;
    sequential_fraction =
      (if total_writes = 0 then 0.0
       else float_of_int stats.Smr.sequential_writes /. float_of_int total_writes);
  }

let run ?(scale = Common.Quick) ?run () = List.map (run_sizing ?run scale) [ Hdd_aa; Azcs_aligned_aa ]

let find results s = List.find (fun r -> r.sizing = s) results

let print results =
  Common.banner
    "Figure 9: sequential writes on SMR, AZCS-aligned AA vs HDD-sized AA (unaged)";
  Wafl_util.Series.print_all ~header:"series: x = throughput (kops/s), y = latency (ms)"
    (List.map (fun r -> Load.to_series r.curve) results);
  List.iter
    (fun r ->
      Common.kv
        (Printf.sprintf "%s:" (sizing_name r.sizing))
        (Printf.sprintf
           "aa_stripes=%d aligned=%b drive=%.0f blk/s random-cs=%d seq-frac=%.3f"
           r.aa_stripes r.azcs_aligned r.drive_throughput_blocks_per_s
           r.random_checksum_writes r.sequential_fraction))
    results;
  let hdd = find results Hdd_aa and azcs = find results Azcs_aligned_aa in
  Printf.printf "\n";
  Common.paper_vs_measured ~metric:"drive throughput gain (aligned)"
    ~paper:"+7%"
    ~measured:
      (Common.pct azcs.drive_throughput_blocks_per_s hdd.drive_throughput_blocks_per_s)
    ~ok:(azcs.drive_throughput_blocks_per_s > hdd.drive_throughput_blocks_per_s);
  Common.paper_vs_measured ~metric:"latency at peak"
    ~paper:"-11%"
    ~measured:
      (Common.pct (Load.latency_at_peak_ms azcs.curve) (Load.latency_at_peak_ms hdd.curve))
    ~ok:(Load.latency_at_peak_ms azcs.curve < Load.latency_at_peak_ms hdd.curve);
  Common.paper_vs_measured ~metric:"random checksum-block writes"
    ~paper:"avoided when aligned"
    ~measured:(Printf.sprintf "%d (hdd AA) vs %d (aligned)" hdd.random_checksum_writes
                 azcs.random_checksum_writes)
    ~ok:(azcs.random_checksum_writes < hdd.random_checksum_writes)
