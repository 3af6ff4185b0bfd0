(* Aging study: watch free space fragment under random overwrites (§2.2),
   see what it does to write chains and full stripes, then reclaim
   contiguity with the segment cleaner (§3.3.1).

   Run with: dune exec examples/aging_study.exe *)

open Wafl_util
open Wafl_core
open Wafl_workload

let print_aa_histogram fs =
  (* Distribution of AA free-space scores across the aggregate: the
     nonuniformity the AA cache exploits. *)
  let range = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let cap = Wafl_aa.Topology.full_aa_capacity range.Aggregate.topology in
  let buckets = Array.make 10 0 in
  Array.iteri
    (fun aa _ ->
      let score = Space.score_now range.Aggregate.space aa in
      let b = min 9 (score * 10 / max 1 cap) in
      buckets.(b) <- buckets.(b) + 1)
    range.Aggregate.space.Space.scores;
  Printf.printf "  AA free-space histogram (0-100%% free, %d AAs):\n"
    (Array.length range.Aggregate.space.Space.scores);
  Array.iteri
    (fun i count ->
      Printf.printf "    %3d-%3d%%  %s\n" (i * 10) ((i + 1) * 10) (String.make count '#'))
    buckets

let stripe_report label report =
  let full = List.fold_left (fun a d -> a + d.Cp.full_stripes) 0 report.Cp.devices in
  let partial = List.fold_left (fun a d -> a + d.Cp.partial_stripes) 0 report.Cp.devices in
  let chains = List.fold_left (fun a d -> a + d.Cp.chains) 0 report.Cp.devices in
  Printf.printf "  %-18s %4d full / %4d partial stripes, %4d write chains for %d blocks\n"
    label full partial chains report.Cp.blocks_allocated

let () =
  let raid_group =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 32768;
      aa_stripes = Some 1024;
    }
  in
  let config =
    Config.make ~raid_groups:[ raid_group ]
      ~vols:[ Config.default_vol ~name:"data" ~blocks:131072 ]
      ~seed:7 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "data" in
  let rng = Rng.split (Fs.rng fs) in

  print_endline "== young file system ==";
  let spec = { Aging.default with Aging.fill_fraction = 0.55; fragmentation_cps = 0 } in
  let working_set = Aging.fill fs vol spec in
  Printf.printf "  filled to %.0f%%; mean free run %.0f blocks\n"
    (100.0 *. Aggregate.used_fraction (Fs.aggregate fs))
    (Aging.free_space_contiguity fs);
  for i = 0 to 999 do
    Fs.stage_write fs ~vol ~file:2 ~offset:(working_set + i)
  done;
  stripe_report "sequential CP:" (Fs.run_cp fs);

  print_endline "\n== after heavy random-overwrite aging ==";
  Aging.fragment fs vol
    { spec with Aging.fragmentation_cps = 60; writes_per_cp = 2000 }
    ~working_set ~rng;
  Printf.printf "  mean free run now %.0f blocks\n" (Aging.free_space_contiguity fs);
  print_aa_histogram fs;
  let w = Random_overwrite.create fs vol ~working_set ~rng:(Rng.split rng) () in
  stripe_report "random CP:" (Random_overwrite.step w 500);

  print_endline "\n== after cleaning the four emptiest AAs ==";
  let cleaned = Cleaner.clean_fs fs ~aas_per_range:4 in
  ignore (Fs.run_cp fs);
  Printf.printf "  cleaned %d AAs, relocating %d blocks\n" cleaned.Cleaner.aas_cleaned
    cleaned.Cleaner.blocks_relocated;
  Printf.printf "  mean free run now %.0f blocks\n" (Aging.free_space_contiguity fs);
  print_aa_histogram fs;
  stripe_report "random CP:" (Random_overwrite.step w 500)
