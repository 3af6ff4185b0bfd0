open Wafl_core

type point = { x : int; with_topaa_us : float; without_topaa_us : float }

type result = {
  sweep_a : point list;
  sweep_b : point list;
  vols_a : int;
  vol_blocks_b : int;
}

let params scale =
  match (scale : Common.scale) with
  | Common.Quick ->
    (* (vols for sweep A, sizes for A, fixed size for B, counts for B) *)
    (8, [ 65_536; 131_072; 262_144; 524_288 ], 131_072, [ 2; 4; 8; 16 ])
  | Common.Full -> (50, [ 131_072; 524_288; 2_097_152; 8_388_608 ], 524_288, [ 5; 10; 25; 50 ])

let hdd_rg scale = Common.hdd_raid_group scale

(* Build a system with [n] volumes of [blocks] each, lightly used so the
   TopAA content is non-trivial, then measure both mount paths. *)
let measure ?run scale ~n_vols ~vol_blocks =
  let rg = hdd_rg scale in
  let vols =
    List.init n_vols (fun i ->
        {
          Config.name = Printf.sprintf "vol%d" i;
          blocks = vol_blocks;
          aa_blocks = Some 4096;
          policy = Config.Best_aa;
        })
  in
  let config = Config.make ~raid_groups:[ rg ] ~vols ?run ~seed:(10007 + n_vols) () in
  let fs = Fs.create config in
  (* put a little data in each volume so bitmaps are non-empty *)
  List.iteri
    (fun i _ ->
      let vol = Fs.vol fs (Printf.sprintf "vol%d" i) in
      for offset = 0 to 255 do
        Fs.stage_write fs ~vol ~file:1 ~offset
      done)
    vols;
  ignore (Fs.run_cp fs);
  let image = Mount.snapshot fs in
  let _, with_topaa = Mount.mount ~lazy_rebuild:true image ~with_topaa:true in
  let _, without = Mount.mount image ~with_topaa:false in
  (with_topaa.Mount.ready_us, without.Mount.ready_us)

let run ?(scale = Common.Quick) ?run () =
  let vols_a, sizes_a, vol_blocks_b, counts_b = params scale in
  let sweep_a =
    List.map
      (fun size ->
        let w, wo = measure ?run scale ~n_vols:vols_a ~vol_blocks:size in
        { x = size; with_topaa_us = w; without_topaa_us = wo })
      sizes_a
  in
  let sweep_b =
    List.map
      (fun count ->
        let w, wo = measure ?run scale ~n_vols:count ~vol_blocks:vol_blocks_b in
        { x = count; with_topaa_us = w; without_topaa_us = wo })
      counts_b
  in
  { sweep_a; sweep_b; vols_a; vol_blocks_b }

let print result =
  Common.banner "Figure 10: first-CP readiness after mount, with vs without TopAA metafiles";
  let print_sweep title unit points =
    Printf.printf "\n%s\n" title;
    let tbl =
      Wafl_util.Table.create
        ~columns:
          [ (unit, Wafl_util.Table.Right); ("with TopAA (ms)", Wafl_util.Table.Right);
            ("without (ms)", Wafl_util.Table.Right); ("speedup", Wafl_util.Table.Right) ]
    in
    List.iter
      (fun p ->
        Wafl_util.Table.add_row tbl
          [
            string_of_int p.x;
            Printf.sprintf "%.2f" (p.with_topaa_us /. 1000.0);
            Printf.sprintf "%.2f" (p.without_topaa_us /. 1000.0);
            Printf.sprintf "%.1fx" (p.without_topaa_us /. p.with_topaa_us);
          ])
      points;
    Wafl_util.Table.print tbl
  in
  print_sweep
    (Printf.sprintf "(A) %d volumes, varying volume size" result.vols_a)
    "vol blocks" result.sweep_a;
  print_sweep
    (Printf.sprintf "(B) %d-block volumes, varying count" result.vol_blocks_b)
    "volumes" result.sweep_b;
  let first_a = List.hd result.sweep_a and last_a = List.hd (List.rev result.sweep_a) in
  let first_b = List.hd result.sweep_b and last_b = List.hd (List.rev result.sweep_b) in
  let growth_factor = float_of_int last_a.x /. float_of_int first_a.x in
  Printf.printf "\n";
  Common.paper_vs_measured ~metric:"(A) scan time grows with volume size"
    ~paper:"linear"
    ~measured:
      (Printf.sprintf "%.1fx time for %.0fx size"
         (last_a.without_topaa_us /. first_a.without_topaa_us)
         growth_factor)
    ~ok:(last_a.without_topaa_us > first_a.without_topaa_us *. (growth_factor /. 2.0));
  Common.paper_vs_measured ~metric:"(A) TopAA time independent of size"
    ~paper:"flat"
    ~measured:
      (Printf.sprintf "%.2fms -> %.2fms" (first_a.with_topaa_us /. 1000.0)
         (last_a.with_topaa_us /. 1000.0))
    ~ok:(last_a.with_topaa_us < first_a.with_topaa_us *. 1.5);
  Common.paper_vs_measured ~metric:"(B) TopAA much faster at every count"
    ~paper:"large gap"
    ~measured:
      (Printf.sprintf "%.0fx at %d vols, %.0fx at %d vols"
         (first_b.without_topaa_us /. first_b.with_topaa_us)
         first_b.x
         (last_b.without_topaa_us /. last_b.with_topaa_us)
         last_b.x)
    ~ok:(last_b.without_topaa_us > last_b.with_topaa_us *. 2.0)
