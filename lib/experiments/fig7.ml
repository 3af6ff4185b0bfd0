open Wafl_util
open Wafl_raid
open Wafl_core
open Wafl_sim
open Wafl_workload

type rg_stats = {
  rg : int;
  aged : bool;
  per_disk_blocks : float array;
  blocks_per_s : float;
  tetrises_per_s : float;
  blocks_per_tetris : float;
}

type result = { groups : rg_stats list; duration_s : float; ops_per_s : float }

let measurement scale =
  match (scale : Common.scale) with
  | Common.Quick -> (60, 1500) (* cps, client ops per cp *)
  | Common.Full -> (120, 3000)

(* Age a RAID-group range in place: allocate a random half of its blocks
   directly (old data not owned by the measured volume), as the paper does
   by overwriting and freeing "until a random 50% of its blocks were
   used". *)
let age_range fs (range : Aggregate.range) ~fraction ~rng =
  let aggregate = Fs.aggregate fs in
  let target = int_of_float (fraction *. float_of_int range.Aggregate.blocks) in
  let allocated = ref 0 in
  while !allocated < target do
    let local = Rng.int rng range.Aggregate.blocks in
    let pvbn = Aggregate.to_global range local in
    if not (Wafl_bitmap.Metafile.is_allocated (Aggregate.metafile aggregate) pvbn) then begin
      Aggregate.allocate aggregate ~pvbn;
      incr allocated
    end
  done

let run ?(scale = Common.Quick) ?run () =
  let rg = Common.hdd_raid_group scale in
  let agg_blocks = 4 * rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make
      ~raid_groups:[ rg; rg; rg; rg ]
      ~vols:
        [ { Config.name = "db"; blocks = agg_blocks; aa_blocks = Some 4096;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ?run ~seed:2003 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "db" in
  let rng = Rng.split (Fs.rng fs) in
  let aggregate = Fs.aggregate fs in
  let ranges = Aggregate.ranges aggregate in
  (* age RG0 and RG1 to a random 50% used; RG2/RG3 stay fresh *)
  age_range fs ranges.(0) ~fraction:0.5 ~rng;
  age_range fs ranges.(1) ~fraction:0.5 ~rng;
  Write_alloc.cp_finish (Fs.write_alloc fs);
  Rebuild.request aggregate Rebuild.Full;
  (* a modest database working set, then the OLTP mix *)
  let working_set = agg_blocks / 10 in
  let fill_batch = 4096 in
  let cursor = ref 0 in
  while !cursor < working_set do
    for i = 0 to min fill_batch (working_set - !cursor) - 1 do
      Fs.stage_write fs ~vol ~file:1 ~offset:(!cursor + i)
    done;
    ignore (Fs.run_cp fs);
    cursor := !cursor + fill_batch
  done;
  (* measurement: reset per-group accounting, run the OLTP mix *)
  Array.iter
    (fun (r : Aggregate.range) ->
      match r.Aggregate.group with Some g -> Group.reset g | None -> ())
    ranges;
  let oltp = Oltp.create fs vol ~working_set ~read_fraction:0.6 ~rng:(Rng.split rng) () in
  let cps, ops_per_cp = measurement scale in
  let total_ops = ref 0 in
  let duration_us = ref 0.0 in
  for _ = 1 to cps do
    let r = Oltp.step oltp ops_per_cp in
    total_ops := !total_ops + r.Oltp.reads + r.Oltp.updates;
    let costs = Cost_model.of_report r.Oltp.report in
    duration_us := !duration_us +. costs.Cost_model.cp_duration_us
  done;
  let duration_s = !duration_us *. 1e-6 in
  let groups =
    Array.to_list
      (Array.mapi
         (fun i (r : Aggregate.range) ->
           match r.Aggregate.group with
           | None -> invalid_arg "fig7: raid range expected"
           | Some g ->
             let totals = Group.totals g in
             let per_disk =
               Array.map
                 (fun blocks -> float_of_int blocks /. duration_s)
                 totals.Group.per_device_blocks
             in
             {
               rg = i;
               aged = i < 2;
               per_disk_blocks = per_disk;
               blocks_per_s = float_of_int totals.Group.blocks_written /. duration_s;
               tetrises_per_s = float_of_int totals.Group.tetrises_written /. duration_s;
               blocks_per_tetris =
                 (if totals.Group.tetrises_written = 0 then 0.0
                  else
                    float_of_int totals.Group.blocks_written
                    /. float_of_int totals.Group.tetrises_written);
             })
         ranges)
  in
  { groups; duration_s; ops_per_s = float_of_int !total_ops /. duration_s }

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let cv xs =
  let m = mean xs in
  if m = 0.0 then 0.0
  else begin
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (var /. float_of_int (Array.length xs)) /. m
  end

let print result =
  Common.banner
    "Figure 7: per-disk blocks/s and per-RG tetrises/s, aged (RG0,RG1) vs fresh (RG2,RG3) \
     under OLTP";
  Common.kv "modeled client load" (Printf.sprintf "%.0f ops/s" result.ops_per_s);
  let tbl =
    Table.create
      ~columns:
        [ ("RG", Table.Left); ("aged", Table.Left); ("disk blocks/s...", Table.Left);
          ("blocks/s", Table.Right); ("tetrises/s", Table.Right);
          ("blocks/tetris", Table.Right) ]
  in
  List.iter
    (fun g ->
      Table.add_row tbl
        [
          Printf.sprintf "RG%d" g.rg;
          (if g.aged then "yes" else "no");
          String.concat " "
            (Array.to_list (Array.map (fun b -> Printf.sprintf "%.0f" b) g.per_disk_blocks));
          Printf.sprintf "%.0f" g.blocks_per_s;
          Printf.sprintf "%.1f" g.tetrises_per_s;
          Printf.sprintf "%.1f" g.blocks_per_tetris;
        ])
    result.groups;
  Table.print tbl;
  let aged = List.filter (fun g -> g.aged) result.groups in
  let fresh = List.filter (fun g -> not g.aged) result.groups in
  let mean_of f gs = List.fold_left (fun acc g -> acc +. f g) 0.0 gs /. float_of_int (List.length gs) in
  let aged_blocks = mean_of (fun g -> g.blocks_per_s) aged in
  let fresh_blocks = mean_of (fun g -> g.blocks_per_s) fresh in
  let aged_bpt = mean_of (fun g -> g.blocks_per_tetris) aged in
  let fresh_bpt = mean_of (fun g -> g.blocks_per_tetris) fresh in
  let max_cv =
    List.fold_left (fun acc g -> Float.max acc (cv g.per_disk_blocks)) 0.0 result.groups
  in
  Printf.printf "\n";
  Common.paper_vs_measured ~metric:"disks balanced within each RG"
    ~paper:"even distribution"
    ~measured:(Printf.sprintf "max per-disk CV %.1f%%" (100.0 *. max_cv))
    ~ok:(max_cv < 0.1);
  Common.paper_vs_measured ~metric:"fresh RGs receive more blocks"
    ~paper:"RG2/RG3 > RG0/RG1"
    ~measured:(Printf.sprintf "%.0f vs %.0f blocks/s (aged %.0f%%)" fresh_blocks aged_blocks
                 (100.0 *. aged_blocks /. fresh_blocks))
    ~ok:(fresh_blocks > aged_blocks *. 1.1);
  Common.paper_vs_measured ~metric:"aged tetrises less efficient"
    ~paper:"fewer blocks per tetris on RG0/RG1"
    ~measured:(Printf.sprintf "%.1f vs %.1f blocks/tetris" aged_bpt fresh_bpt)
    ~ok:(aged_bpt < fresh_bpt)
