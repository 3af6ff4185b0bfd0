(* Persisted-state integrity: CRC sidecars, verified remount, scrubber.

   Every test drives the real mmap path: a first "process" (an
   [with_mmap_dir] session) creates a system and commits CPs, the bytes
   on disk are then damaged (or not), and a second session remounts the
   same directory and must classify exactly what happened. *)

open Wafl_bitmap
open Wafl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  dir

(* Small enough that the whole aggregate activemap is one integrity page
   (2 rg x 4 data x 1024 blocks = 8192 bits < 32768), so every CP dirties
   page 0 and that page straddles both physical ranges. *)
let config ?faults ?(scrub_rate = 0) ?dir ~seed () =
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 1024;
      aa_stripes = Some 128;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Config.default_vol ~name:"vol0" ~blocks:4096 ]
    ~run:
      { Config.default_run with
        Config.faults;
        scrub_rate;
        mmap_dir = dir }
    ~seed ()

let stage_and_cp fs ~seed ~ops =
  let rng = Wafl_util.Rng.create ~seed in
  let vol = (Fs.vols fs).(0) in
  for _ = 1 to ops do
    Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 8)
      ~offset:(Wafl_util.Rng.int rng 256)
  done;
  ignore (Fs.run_cp fs)

(* The aggregate activemap's map store is tracked ordinal 0; grab its
   backing file from inside the session. *)
let agg_map_path fs =
  let store = Metafile.store (Aggregate.metafile (Fs.aggregate fs)) in
  match Pagestore.mapped_path store with
  | Some (_, path) -> path
  | None -> Alcotest.fail "aggregate map store is not file-mapped"

let read_bytes path ~pos ~len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      seek_in ic pos;
      really_input_string ic len)

(* The store file can be smaller than one integrity page (a page covers
   [min page_size length] store bytes), so whole-page operations read the
   whole file. *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path ~pos s =
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      seek_out oc pos;
      output_string oc s)

let flip_byte path ~pos =
  let b = (read_bytes path ~pos ~len:1).[0] in
  write_bytes path ~pos (String.make 1 (Char.chr (Char.code b lxor 0x5a)))

(* --- torn detection: bit-rot on disk between two sessions ------------- *)

let test_torn_remount () =
  let dir = fresh_dir "wafl_test_integrity_torn" in
  let path = ref "" in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:7 ()) in
      stage_and_cp fs ~seed:1 ~ops:200;
      stage_and_cp fs ~seed:2 ~ops:200;
      path := agg_map_path fs);
  flip_byte !path ~pos:5;
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:7 ()) in
      let r = Mount.verify_pagestores fs in
      check_bool "torn page detected" true (r.Mount.torn_pages >= 1);
      check_int "nothing classified stale" 0 r.Mount.stale_pages;
      (* one bad activemap page overlaps both physical ranges *)
      check_int "both straddled ranges quarantined" 2 r.Mount.ranges_quarantined;
      let _findings, _n = Iron.repair ~authority:Iron.Container_authority fs in
      check_int "iron clean after container-authority heal" 0
        (List.length (Iron.check fs)))

(* --- stale detection: the last committed write is lost ---------------- *)

let test_stale_remount () =
  let dir = fresh_dir "wafl_test_integrity_stale" in
  let path = ref "" in
  let gen1_page = ref "" in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:11 ()) in
      stage_and_cp fs ~seed:1 ~ops:200;
      path := agg_map_path fs;
      (* the mapping is shared, so the committed bytes are visible to a
         plain read of the backing file *)
      gen1_page := read_all !path;
      stage_and_cp fs ~seed:2 ~ops:200);
  (* revert the page to its generation-1 image: a lost write *)
  check_bool "second CP changed the page" true (!gen1_page <> read_all !path);
  write_bytes !path ~pos:0 !gen1_page;
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:11 ()) in
      let r = Mount.verify_pagestores fs in
      check_bool "stale page detected" true (r.Mount.stale_pages >= 1);
      check_int "nothing classified torn" 0 r.Mount.torn_pages;
      let _findings, _n = Iron.repair ~authority:Iron.Container_authority fs in
      check_int "iron clean after heal" 0 (List.length (Iron.check fs)))

(* --- sidecar present, store file missing ------------------------------ *)

let test_store_missing () =
  let dir = fresh_dir "wafl_test_integrity_nostore" in
  let path = ref "" in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:3 ()) in
      stage_and_cp fs ~seed:1 ~ops:200;
      path := agg_map_path fs);
  Sys.remove !path;
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:3 ()) in
      let r = Mount.verify_pagestores fs in
      (* the recreated store is zero-filled; the sidecar vouches for the
         committed bits, so the wipe must be flagged *)
      check_bool "wiped store detected" true (r.Mount.torn_pages + r.Mount.stale_pages >= 1);
      let _findings, _n = Iron.repair ~authority:Iron.Container_authority fs in
      check_int "iron clean after heal" 0 (List.length (Iron.check fs)))

(* --- store present, sidecar missing ----------------------------------- *)

let test_sidecar_missing () =
  let dir = fresh_dir "wafl_test_integrity_nosidecar" in
  let seq = ref (-1) in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:5 ()) in
      stage_and_cp fs ~seed:1 ~ops:200;
      let store = Metafile.store (Aggregate.metafile (Fs.aggregate fs)) in
      seq := fst (Option.get (Pagestore.mapped_path store)));
  Sys.remove (Filename.concat dir (Printf.sprintf "ps%d.crc" !seq));
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:5 ()) in
      let r = Mount.verify_pagestores fs in
      check_bool "store without sidecar reported unverified" true
        (r.Mount.unverified_stores >= 1);
      (* sealed blind: the surviving bytes become the new vouched truth *)
      check_int "no damage invented" 0 (r.Mount.torn_pages + r.Mount.stale_pages))

(* --- generation stamp is stable across write-free remounts ------------ *)

let test_generation_stable () =
  let dir = fresh_dir "wafl_test_integrity_gen" in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:9 ()) in
      stage_and_cp fs ~seed:1 ~ops:200;
      stage_and_cp fs ~seed:2 ~ops:200);
  let g = ref (-1) in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:9 ()) in
      let r = Mount.verify_pagestores fs in
      check_int "first write-free remount sees no damage" 0
        (r.Mount.torn_pages + r.Mount.stale_pages);
      g := Integrity.committed_generation ());
  check_bool "two CPs committed two generations" true (!g >= 2);
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:9 ()) in
      let r = Mount.verify_pagestores fs in
      check_int "second write-free remount sees no damage" 0
        (r.Mount.torn_pages + r.Mount.stale_pages);
      ignore fs;
      check_int "generation unchanged by write-free remounts" !g
        (Integrity.committed_generation ()))

(* --- rot/lost fault-grammar round trip -------------------------------- *)

let test_fault_grammar () =
  let open Wafl_fault in
  (match Fault.spec_of_string "rot=0:1,lost=0:2@5" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    check_bool "rot parsed with default gen" true (spec.Fault.rot_pages = [ (0, 1, 1) ]);
    check_bool "lost parsed with explicit gen" true (spec.Fault.lost_pages = [ (0, 2, 5) ]);
    let s = Fault.spec_to_string spec in
    check_bool "rot survives round trip" true
      (match Fault.spec_of_string s with
      | Ok spec' ->
        spec'.Fault.rot_pages = spec.Fault.rot_pages
        && spec'.Fault.lost_pages = spec.Fault.lost_pages
      | Error _ -> false));
  check_bool "negative page rejected" true
    (match Fault.spec_of_string "rot=0:-1" with Error _ -> true | Ok _ -> false);
  check_bool "generation zero rejected" true
    (match Fault.spec_of_string "lost=0:0@0" with Error _ -> true | Ok _ -> false)

(* --- scrubber: injected damage is found and healed between CPs -------- *)

let test_scrub_heals () =
  let dir = fresh_dir "wafl_test_integrity_scrub" in
  let spec =
    match Wafl_fault.Fault.spec_of_string "rot=0:0@1" with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~faults:spec ~seed:13 ()) in
      (* first CP commits generation 1: the rot arm fires right after
         the sidecar persist, corrupting the committed activemap *)
      stage_and_cp fs ~seed:1 ~ops:200;
      let stats = Scrub.pass fs ~budget:4096 in
      check_bool "scrub found the rotted page" true (stats.Scrub.bad_pages >= 1);
      check_int "scrub healed what it found" stats.Scrub.bad_pages
        stats.Scrub.healed;
      check_int "iron clean after scrub heal" 0 (List.length (Iron.check fs));
      let stats' = Scrub.pass fs ~budget:4096 in
      check_int "second sweep finds nothing" 0 stats'.Scrub.bad_pages)

(* The aggregate arms its run's injections after its own stores are
   tracked; a lost write at the very first generation must still have
   the pre-CP image to revert to. *)
let test_lost_write_first_generation () =
  let dir = fresh_dir "wafl_test_integrity_lost1" in
  let spec =
    match Wafl_fault.Fault.spec_of_string "lost=0:0@1" with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~faults:spec ~dir ~seed:17 ()) in
      stage_and_cp fs ~seed:2 ~ops:200;
      let store = Metafile.store (Aggregate.metafile (Fs.aggregate fs)) in
      check_bool "generation-1 lost write classifies stale" true
        (Integrity.verify_page store 0 = Some Integrity.Stale))

(* The scrubber keeps its round-robin position on the system it scrubs,
   so a scrubbed system that is dropped is collected like any other. *)
let test_scrubbed_systems_collected () =
  let dir = fresh_dir "wafl_test_integrity_collect" in
  let collected = ref 0 in
  let tel = Wafl_telemetry.Telemetry.create () in
  Wafl_telemetry.Telemetry.with_installed tel (fun () ->
      Pagestore.with_mmap_dir dir (fun () ->
          for seed = 1 to 20 do
            let fs = Fs.create (config ~scrub_rate:64 ~dir ~seed ()) in
            Gc.finalise (fun _ -> incr collected) fs;
            stage_and_cp fs ~seed ~ops:50
          done));
  Gc.full_major ();
  Gc.full_major ();
  check_bool "every system was scrubbed after its CP" true
    (match
       Wafl_telemetry.Registry.find (Wafl_telemetry.Telemetry.registry tel) "scrub.passes"
     with
    | Some (Wafl_telemetry.Registry.Counter c) -> Wafl_telemetry.Registry.count c = 20
    | _ -> false);
  check_int "every dropped scrubbed system is collected" 20 !collected

(* --- the heal closure, end to end on a 64k-block aggregate ----------- *)

let closure_config ?faults ~dir ~seed () =
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
    ~run:{ Config.default_run with Config.mmap_dir = Some dir; faults }
    ~seed ()

(* Inject one fault at its exact generation; the damaged page must
   classify as [expect], one scrub pass must find and heal exactly that
   page back to a clean Iron check, and once a further CP has persisted
   the healed sidecar, a fresh session's verified remount finds nothing. *)
let check_heal_closure ~name ~spec ~cps_to_fire ~expect =
  let dir = fresh_dir ("wafl_test_integrity_closure_" ^ name) in
  let spec =
    match Wafl_fault.Fault.spec_of_string spec with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (closure_config ~faults:spec ~dir ~seed:11 ()) in
      let rng = Wafl_util.Rng.create ~seed:13 in
      let vol = (Fs.vols fs).(0) in
      let cp () =
        for _ = 1 to 400 do
          Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 16)
            ~offset:(Wafl_util.Rng.int rng 2048)
        done;
        ignore (Fs.run_cp fs)
      in
      for _ = 1 to cps_to_fire do
        cp ()
      done;
      let store = Metafile.store (Aggregate.metafile (Fs.aggregate fs)) in
      check_bool (name ^ ": damaged page classified") true
        (Integrity.verify_page store 0 = Some expect);
      let stats = Scrub.pass fs ~budget:8192 in
      check_int (name ^ ": scrub finds one bad page") 1 stats.Scrub.bad_pages;
      check_int (name ^ ": scrub heals it") 1 stats.Scrub.healed;
      check_int (name ^ ": iron clean after heal") 0 (List.length (Iron.check fs));
      cp ());
  Pagestore.with_mmap_dir dir (fun () ->
      let r = Mount.verify_pagestores (Fs.create (closure_config ~dir ~seed:11 ())) in
      check_int (name ^ ": fresh remount finds no damage") 0
        (r.Mount.torn_pages + r.Mount.stale_pages))

let test_heal_closure () =
  check_heal_closure ~name:"rot" ~spec:"rot=0:0@1" ~cps_to_fire:1 ~expect:Integrity.Torn;
  check_heal_closure ~name:"lost" ~spec:"lost=0:0@2" ~cps_to_fire:2 ~expect:Integrity.Stale

(* A pass verifies every page of its budget at any domain count: on a
   4 x 65536-block rig (18 tracked pages) the cursor starts 12 pages
   before the wrap, so the rotted page 0 is the pass's 13th probe — past
   the first [jobs * 4] probes a pool-chunked pass dispatches. *)
let test_scrub_pass_covers_budget () =
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "jobs %d" jobs in
      let dir = fresh_dir (Printf.sprintf "wafl_test_integrity_budget_%d" jobs) in
      let spec =
        match Wafl_fault.Fault.spec_of_string "rot=0:0@1" with
        | Ok s -> s
        | Error msg -> Alcotest.fail msg
      in
      Pagestore.with_mmap_dir dir (fun () ->
          let rg =
            {
              Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
              data_devices = 4;
              parity_devices = 1;
              device_blocks = 65536;
              aa_stripes = Some 512;
            }
          in
          let config =
            Config.make ~raid_groups:[ rg; rg ]
              ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
              ~run:
                { Config.default_run with
                  Config.mmap_dir = Some dir;
                  faults = Some spec;
                  jobs }
              ~seed:11 ()
          in
          let fs = Fs.create config in
          let rng = Wafl_util.Rng.create ~seed:13 in
          let vol = (Fs.vols fs).(0) in
          for _ = 1 to 400 do
            Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 16)
              ~offset:(Wafl_util.Rng.int rng 2048)
          done;
          ignore (Fs.run_cp fs);
          let pages store = Option.value ~default:0 (Integrity.n_pages store) in
          let total =
            pages (Metafile.store (Aggregate.metafile (Fs.aggregate fs)))
            + pages (Metafile.store (Flexvol.metafile vol))
          in
          check_int (name ^ ": tracked pages") 18 total;
          Fs.scrub_cursor fs := total - 12;
          let stats = Scrub.pass fs ~budget:18 in
          check_int (name ^ ": whole budget verified") 18 stats.Scrub.pages_verified;
          check_int (name ^ ": rotted page found") 1 stats.Scrub.bad_pages;
          check_int (name ^ ": and healed") 1 stats.Scrub.healed;
          check_int (name ^ ": iron clean after heal") 0 (List.length (Iron.check fs))))
    [ 1; 2 ]

(* Sealing rides the CP flush, never the consume: the ring-served
   allocation window on file-mapped stores allocates no minor words. *)
let test_sealed_consume_zero_alloc () =
  let dir = fresh_dir "wafl_test_integrity_consume" in
  Pagestore.with_mmap_dir dir (fun () ->
      let rg = Wafl_experiments.Common.hdd_raid_group Wafl_experiments.Common.Quick in
      let agg =
        Aggregate.create
          (Config.make ~raid_groups:[ rg ] ~aggregate_policy:Config.Best_aa
             ~run:{ Config.default_run with Config.mmap_dir = Some dir }
             ~seed:7 ())
      in
      let w = Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) in
      let dst = Array.make 256 0 in
      ignore (Write_alloc.allocate_pvbns_into w ~dst 256);
      let before = Gc.minor_words () in
      ignore (Write_alloc.allocate_pvbns_into w ~dst 256);
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "sealed mmap consume window allocates nothing (%.0f words)" words)
        true (words = 0.0))

let () =
  Alcotest.run "integrity"
    [
      ( "verified remount",
        [
          Alcotest.test_case "torn page detected and healed" `Quick test_torn_remount;
          Alcotest.test_case "lost write classifies stale" `Quick test_stale_remount;
          Alcotest.test_case "wiped store flagged via sidecar" `Quick test_store_missing;
          Alcotest.test_case "missing sidecar reported unverified" `Quick
            test_sidecar_missing;
          Alcotest.test_case "generation stable without writes" `Quick
            test_generation_stable;
        ] );
      ( "fault grammar",
        [
          Alcotest.test_case "rot/lost round trip" `Quick test_fault_grammar;
          Alcotest.test_case "lost write at generation 1" `Quick
            test_lost_write_first_generation;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "rot healed between CPs" `Quick test_scrub_heals;
          Alcotest.test_case "rot/lost heal closure" `Quick test_heal_closure;
          Alcotest.test_case "pass covers its budget at jobs 1 and 2" `Quick
            test_scrub_pass_covers_budget;
          Alcotest.test_case "consume window zero-alloc" `Quick test_sealed_consume_zero_alloc;
          Alcotest.test_case "dropped systems collected" `Quick test_scrubbed_systems_collected;
        ] );
    ]
