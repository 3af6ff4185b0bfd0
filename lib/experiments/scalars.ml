open Wafl_util
open Wafl_core
open Wafl_sim
open Wafl_workload
open Wafl_aacache

type result = {
  cache_cpu_share : float;
  hbps_error_margin : float;
  hbps_worst_observed_error : float;
  heap_memory_bytes_1m_aas : int;
  topaa_entries_per_block : int;
}

(* Worst pick error of an HBPS under sustained random churn, relative to the
   true maximum score, replenishing at CP boundaries as the system does. *)
let hbps_worst_error ~rng =
  let n = 512 in
  let max_score = 32768 in
  let scores = Array.init n (fun _ -> Rng.int rng (max_score + 1)) in
  let h = Hbps.create ~capacity:100 ~max_score ~scores () in
  Hbps.replenish h;
  let worst = ref 0.0 in
  for _cp = 1 to 200 do
    for _ = 1 to 32 do
      let aa = Rng.int rng n in
      Hbps.update h ~aa ~score:(Rng.int rng (max_score + 1))
    done;
    if Hbps.needs_replenish h then Hbps.replenish h;
    match Hbps.pick_best h with
    | Some (_, s) ->
      let true_max = ref 0 in
      for aa = 0 to n - 1 do
        true_max := max !true_max (Hbps.score h ~aa)
      done;
      if !true_max > 0 then
        worst := Float.max !worst (float_of_int (!true_max - s) /. float_of_int max_score)
    | None -> ()
  done;
  !worst

let run ?(scale = Common.Quick) ?run () =
  (* cache CPU share under the Fig-6 "both caches" workload *)
  let rg = Common.ssd_raid_group scale ~aa_stripes:(Some 2048) in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "lun"; blocks = agg_blocks * 9 / 8; aa_blocks = Some 1024;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?run ~seed:41 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "lun" in
  let rng = Rng.split (Fs.rng fs) in
  let spec =
    { Aging.fill_fraction = 0.55; fragmentation_cps = 40; writes_per_cp = 2000; file = 1 }
  in
  let working_set = Aging.age fs vol ~spec ~rng () in
  let workload = Random_overwrite.create fs vol ~working_set ~rng:(Rng.split rng) () in
  let cps = match scale with Common.Quick -> 40 | Common.Full -> 100 in
  let costs =
    Load.measure_service_time ~cps ~ops_per_cp:1000
      ~step:(fun n -> Random_overwrite.step workload n)
      ()
  in
  {
    cache_cpu_share = costs.Cost_model.cache_us_per_op /. costs.Cost_model.cpu_us_per_op;
    hbps_error_margin =
      Hbps.error_margin (Hbps.create ~max_score:32768 ~scores:(Array.make 1 0) ());
    hbps_worst_observed_error = hbps_worst_error ~rng:(Rng.split rng);
    heap_memory_bytes_1m_aas = Wafl_aa.Sizing.memory_bytes_for_heap ~aa_count:(1024 * 1024);
    topaa_entries_per_block = Topaa.raid_aware_capacity;
  }

let print r =
  Common.banner "Section 4.1 scalar claims";
  Common.paper_vs_measured ~metric:"cache maintenance CPU share"
    ~paper:"~0.002% per cache"
    ~measured:(Printf.sprintf "%.4f%%" (100.0 *. r.cache_cpu_share))
    ~ok:(r.cache_cpu_share < 0.001);
  Common.paper_vs_measured ~metric:"HBPS guaranteed error margin"
    ~paper:"3.125% (1k of 32k)"
    ~measured:(Printf.sprintf "%.4f%%" (100.0 *. r.hbps_error_margin))
    ~ok:(abs_float (r.hbps_error_margin -. 0.03125) < 1e-9);
  Common.paper_vs_measured ~metric:"HBPS worst observed pick error"
    ~paper:"within margin"
    ~measured:(Printf.sprintf "%.4f%%" (100.0 *. r.hbps_worst_observed_error))
    ~ok:(r.hbps_worst_observed_error <= r.hbps_error_margin +. 1e-9);
  Common.paper_vs_measured ~metric:"heap memory for 1M AAs"
    ~paper:"~1MiB (8B/AA in our layout: 8MiB)"
    ~measured:(Printf.sprintf "%d bytes" r.heap_memory_bytes_1m_aas)
    ~ok:(r.heap_memory_bytes_1m_aas <= 16 * 1024 * 1024);
  Common.paper_vs_measured ~metric:"TopAA entries per 4KiB block"
    ~paper:"512"
    ~measured:(string_of_int r.topaa_entries_per_block)
    ~ok:(r.topaa_entries_per_block >= 500)
