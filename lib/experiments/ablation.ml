open Wafl_util
open Wafl_core
open Wafl_sim
open Wafl_workload
open Wafl_aacache

type bin_width_point = {
  bin_width : int;
  guaranteed_error : float;
  worst_observed_error : float;
  mean_pick_score : float;
}

type policy_point = {
  policy : string;
  peak_throughput : float;
  mean_chosen_free : float;
  stripe_fullness : float;
}

type threshold_point = {
  threshold : int option;
  total_blocks_per_s : float;
  partial_stripe_fraction : float;
}

type cleaner_point = {
  strategy : string;
  relocations_per_aa : float;
  blocks_reclaimed : int;
}

type result = {
  bin_widths : bin_width_point list;
  policies : policy_point list;
  thresholds : threshold_point list;
  cleaner : cleaner_point list;
}

(* --- HBPS bin width: error / resolution trade-off --- *)

let bin_width_point ~rng bin_width =
  let n = 1024 and max_score = 32768 in
  let scores = Array.init n (fun _ -> Rng.int rng (max_score + 1)) in
  let h = Hbps.create ~bin_width ~capacity:128 ~max_score ~scores () in
  Hbps.replenish h;
  let worst = ref 0.0 in
  let pick_sum = ref 0.0 in
  let picks = ref 0 in
  for _cp = 1 to 100 do
    for _ = 1 to 64 do
      Hbps.update h ~aa:(Rng.int rng n) ~score:(Rng.int rng (max_score + 1))
    done;
    if Hbps.needs_replenish h then Hbps.replenish h;
    match Hbps.pick_best h with
    | Some (_, s) ->
      incr picks;
      pick_sum := !pick_sum +. float_of_int s;
      let true_max = ref 0 in
      for aa = 0 to n - 1 do
        true_max := max !true_max (Hbps.score h ~aa)
      done;
      worst :=
        Float.max !worst (float_of_int (!true_max - s) /. float_of_int max_score)
    | None -> ()
  done;
  {
    bin_width;
    guaranteed_error = float_of_int bin_width /. float_of_int max_score;
    worst_observed_error = !worst;
    mean_pick_score = (if !picks = 0 then 0.0 else !pick_sum /. float_of_int !picks);
  }

(* --- Allocation policy on an aged HDD system --- *)

let policy_name = function
  | Config.Best_aa -> "best-AA (paper)"
  | Config.Random_aa -> "random (baseline)"
  | Config.First_fit -> "first-fit"

let policy_point ?run scale policy =
  let rg = Common.hdd_raid_group scale in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "v"; blocks = agg_blocks; aa_blocks = Some 4096;
            policy = Config.Best_aa } ]
      ~aggregate_policy:policy ?run ~seed:4242 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "v" in
  let rng = Rng.split (Fs.rng fs) in
  let spec =
    { Aging.fill_fraction = 0.5; fragmentation_cps = 40; writes_per_cp = 1500; file = 1 }
  in
  let working_set = Aging.age fs vol ~spec ~rng () in
  let walloc = Fs.write_alloc fs in
  Write_alloc.reset_take_stats walloc;
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  (match range0.Aggregate.group with Some g -> Wafl_raid.Group.reset g | None -> ());
  let workload = Random_overwrite.create fs vol ~working_set ~rng:(Rng.split rng) () in
  let cps = match scale with Common.Quick -> 40 | Common.Full -> 100 in
  let costs =
    Load.measure_service_time ~cps ~ops_per_cp:800
      ~step:(fun n -> Random_overwrite.step workload n)
      ()
  in
  let n, sum = Write_alloc.phys_take_trace walloc in
  let full = Wafl_aa.Topology.full_aa_capacity range0.Aggregate.topology in
  let fullness =
    match range0.Aggregate.group with
    | Some g -> Wafl_raid.Group.stripe_fullness (Wafl_raid.Group.totals g)
    | None -> 0.0
  in
  {
    policy = policy_name policy;
    peak_throughput = 1e6 /. costs.Cost_model.service_time_us;
    mean_chosen_free =
      (if n = 0 then 0.0 else float_of_int sum /. float_of_int n /. float_of_int full);
    stripe_fullness = fullness;
  }

(* --- RG fragmentation threshold (§3.3.1) --- *)

let threshold_point ?run scale threshold =
  let rg = Common.hdd_raid_group scale in
  let agg_blocks = 2 * rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make
      ~raid_groups:[ rg; rg ]
      ~vols:
        [ { Config.name = "v"; blocks = agg_blocks; aa_blocks = Some 4096;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?rg_score_threshold:threshold ?run ~seed:5151 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "v" in
  let rng = Rng.split (Fs.rng fs) in
  (* Heavily fragment RG0 only, so the threshold has something to skip. *)
  let aggregate = Fs.aggregate fs in
  let r0 = (Aggregate.ranges aggregate).(0) in
  let placed = ref 0 in
  let target = r0.Aggregate.blocks * 8 / 10 in
  while !placed < target do
    let pvbn = Aggregate.to_global r0 (Rng.int rng r0.Aggregate.blocks) in
    if not (Wafl_bitmap.Metafile.is_allocated (Aggregate.metafile aggregate) pvbn) then begin
      Aggregate.allocate aggregate ~pvbn;
      incr placed
    end
  done;
  Write_alloc.cp_finish (Fs.write_alloc fs);
  Rebuild.request aggregate Rebuild.Full;
  (* measure write efficiency *)
  let duration_us = ref 0.0 in
  let blocks = ref 0 in
  let full = ref 0 and partial = ref 0 in
  let offset = ref 0 in
  let cps = match scale with Common.Quick -> 20 | Common.Full -> 40 in
  for _ = 1 to cps do
    for i = 0 to 999 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(!offset + i)
    done;
    offset := !offset + 1000;
    let r = Fs.run_cp fs in
    blocks := !blocks + r.Cp.blocks_allocated;
    List.iter
      (fun d ->
        full := !full + d.Cp.full_stripes;
        partial := !partial + d.Cp.partial_stripes)
      r.Cp.devices;
    duration_us := !duration_us +. (Cost_model.of_report r).Cost_model.cp_duration_us
  done;
  {
    threshold;
    total_blocks_per_s = float_of_int !blocks /. (!duration_us *. 1e-6);
    partial_stripe_fraction =
      (if !full + !partial = 0 then 0.0
       else float_of_int !partial /. float_of_int (!full + !partial));
  }

(* --- Cleaner strategy --- *)

let cleaner_point ?run scale strategy =
  let rg = Common.hdd_raid_group scale in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "v"; blocks = agg_blocks; aa_blocks = Some 4096;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?run ~seed:6161 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "v" in
  let rng = Rng.split (Fs.rng fs) in
  (* churn past the point where pristine AAs survive, so "emptiest" still
     means some relocation work *)
  let spec =
    { Aging.fill_fraction = 0.6; fragmentation_cps = 90; writes_per_cp = 1500; file = 1 }
  in
  ignore (Aging.age fs vol ~spec ~rng ());
  let n = match scale with Common.Quick -> 3 | Common.Full -> 8 in
  let report = Cleaner.clean_fs ~strategy fs ~aas_per_range:n in
  ignore (Fs.run_cp fs);
  {
    strategy =
      (match strategy with
      | Cleaner.Emptiest_first -> "emptiest-first (paper)"
      | Cleaner.Fullest_first -> "fullest-first");
    relocations_per_aa =
      (if report.Cleaner.aas_cleaned = 0 then 0.0
       else
         float_of_int report.Cleaner.blocks_relocated
         /. float_of_int report.Cleaner.aas_cleaned);
    blocks_reclaimed = report.Cleaner.blocks_relocated + report.Cleaner.blocks_reclaimed;
  }

let run ?(scale = Common.Quick) ?run () =
  let rng = Rng.create ~seed:77 in
  {
    bin_widths =
      List.map (fun w -> bin_width_point ~rng:(Rng.split rng) w) [ 256; 1024; 4096; 16384 ];
    policies =
      List.map (policy_point ?run scale) [ Config.Best_aa; Config.Random_aa; Config.First_fit ];
    thresholds = List.map (threshold_point ?run scale) [ None; Some 512; Some 2048 ];
    cleaner = List.map (cleaner_point ?run scale) [ Cleaner.Emptiest_first; Cleaner.Fullest_first ];
  }

let print r =
  Common.banner "Ablations: bin width, allocation policy, RG threshold, cleaner strategy";
  Printf.printf "\nHBPS bin width (32k score space, 1k chosen by the paper):\n";
  let tbl =
    Table.create
      ~columns:
        [ ("bin width", Table.Right); ("guaranteed err", Table.Right);
          ("worst observed", Table.Right); ("mean pick score", Table.Right) ]
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          string_of_int p.bin_width;
          Printf.sprintf "%.2f%%" (100.0 *. p.guaranteed_error);
          Printf.sprintf "%.2f%%" (100.0 *. p.worst_observed_error);
          Printf.sprintf "%.0f" p.mean_pick_score;
        ])
    r.bin_widths;
  Table.print tbl;
  Printf.printf "\nAllocation policy (aged HDD aggregate):\n";
  let tbl =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("capacity ops/s", Table.Right);
          ("chosen AA free", Table.Right); ("stripe fullness", Table.Right) ]
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          p.policy;
          Printf.sprintf "%.0f" p.peak_throughput;
          Printf.sprintf "%.0f%%" (100.0 *. p.mean_chosen_free);
          Printf.sprintf "%.0f%%" (100.0 *. p.stripe_fullness);
        ])
    r.policies;
  Table.print tbl;
  Printf.printf "\nRG fragmentation threshold (RG0 fragmented to 80%%, RG1 fresh):\n";
  let tbl =
    Table.create
      ~columns:
        [ ("threshold", Table.Left); ("blocks/s", Table.Right);
          ("partial stripes", Table.Right) ]
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          (match p.threshold with None -> "off" | Some v -> string_of_int v);
          Printf.sprintf "%.0f" p.total_blocks_per_s;
          Printf.sprintf "%.1f%%" (100.0 *. p.partial_stripe_fraction);
        ])
    r.thresholds;
  Table.print tbl;
  Printf.printf "\nSegment-cleaning strategy:\n";
  let tbl =
    Table.create
      ~columns:
        [ ("strategy", Table.Left); ("relocations/AA", Table.Right);
          ("blocks reclaimed", Table.Right) ]
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          p.strategy;
          Printf.sprintf "%.0f" p.relocations_per_aa;
          string_of_int p.blocks_reclaimed;
        ])
    r.cleaner;
  Table.print tbl;
  (* direction checks *)
  (match r.cleaner with
  | [ emptiest; fullest ] ->
    Common.paper_vs_measured ~metric:"cleaning emptiest relocates least"
      ~paper:"best ROI at top of cache"
      ~measured:
        (Printf.sprintf "%.0f vs %.0f relocations/AA" emptiest.relocations_per_aa
           fullest.relocations_per_aa)
      ~ok:(emptiest.relocations_per_aa < fullest.relocations_per_aa)
  | _ -> ());
  match r.bin_widths with
  | first :: _ ->
    Common.paper_vs_measured ~metric:"bin width bounds pick error"
      ~paper:"error <= width/max"
      ~measured:
        (String.concat ", "
           (List.map
              (fun p -> Printf.sprintf "%d:%.2f%%" p.bin_width (100.0 *. p.worst_observed_error))
              r.bin_widths))
      ~ok:
        (List.for_all
           (fun p -> p.worst_observed_error <= p.guaranteed_error +. 1e-9)
           r.bin_widths)
    |> fun () -> ignore first
  | [] -> ()
