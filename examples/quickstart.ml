(* Quickstart: build a small ONTAP-like system, write some data, watch a
   consistency point allocate blocks through the AA caches.

   Run with: dune exec examples/quickstart.exe *)

open Wafl_core

let () =
  (* An aggregate of one 4+1 HDD RAID group and one FlexVol. *)
  let raid_group =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 16384;           (* 64MiB per device at 4KiB blocks *)
      aa_stripes = Some 1024;          (* 16 allocation areas per group *)
    }
  in
  let config =
    Config.make ~raid_groups:[ raid_group ]
      ~vols:[ Config.default_vol ~name:"home" ~blocks:65536 ]
      ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "home" in

  (* Stage a thousand 4KiB file-block writes and flush them as one CP. *)
  for offset = 0 to 999 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  Printf.printf "first CP:   %d ops, %d blocks placed, %d metafile pages, %d full stripes\n"
    report.Cp.ops report.Cp.blocks_allocated
    (report.Cp.agg_metafile_pages + report.Cp.vol_metafile_pages)
    (List.fold_left (fun a d -> a + d.Cp.full_stripes) 0 report.Cp.devices);

  (* Overwrite half of them: COW frees the old blocks at the next CP. *)
  for offset = 0 to 499 do
    Fs.stage_write fs ~vol ~file:1 ~offset
  done;
  let report = Fs.run_cp fs in
  Printf.printf "overwrite:  %d blocks placed, %d physical + %d virtual blocks freed\n"
    report.Cp.blocks_allocated report.Cp.pvbns_freed report.Cp.vvbns_freed;

  (* Peek at the RAID-aware AA cache: the allocator consumes the emptiest
     area first, so the best score stays high. *)
  let range = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  (match range.Aggregate.space.Space.cache with
  | Some cache ->
    (match Wafl_aacache.Cache.peek_best_score cache with
    | Some score ->
      Printf.printf "best AA:    %d free blocks of %d\n" score
        (Wafl_aa.Topology.full_aa_capacity range.Aggregate.topology)
    | None -> ())
  | None -> ());

  (* Every file block is reachable through its virtual->physical mapping. *)
  let mapped = ref 0 in
  for offset = 0 to 999 do
    match Flexvol.read_file vol ~file:1 ~offset with
    | Some vvbn -> (
      match Flexvol.pvbn_of_vvbn vol vvbn with Some _ -> incr mapped | None -> ())
    | None -> ()
  done;
  Printf.printf "file state: %d/1000 blocks mapped through vVBN -> pVBN\n" !mapped;
  Printf.printf "aggregate:  %.1f%% used after %d CPs\n"
    (100.0 *. Aggregate.used_fraction (Fs.aggregate fs))
    (Fs.cps_completed fs)
