(* Persisted-state integrity: CRC sidecars, verified remount, scrubber,
   and anonymous-vs-file-mapped determinism.

   The remount tests drive the real mmap path: a first "process" (an
   [with_mmap_dir] session) creates a system and commits CPs, the bytes
   on disk are then damaged (or not), and a second session remounts the
   same directory and must classify exactly what happened. *)

open Wafl_bitmap
open Wafl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Empties [dir] recursively: the crash matrix leaves [run<k>]
   subdirectories behind, which a rerun in the same temp directory must
   clear too. *)
let rec remove_contents dir =
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then begin
        remove_contents path;
        Sys.rmdir path
      end
      else Sys.remove path)
    (Sys.readdir dir)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then remove_contents dir else Sys.mkdir dir 0o700;
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

(* --- restart: a new process keeps the bitmaps but not the namespace ---- *)

(* The container and file maps are heap state, so a second [Fs.create]
   over the directory sees the first session's 800 blocks allocated in
   both bitmaps with no owner.  Iron reports both leaks, and the
   container-authority heal frees them. *)
let test_restart_orphans () =
  let dir = fresh_dir "wafl_test_integrity_restart" in
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:13 ()) in
      let vol = (Fs.vols fs).(0) in
      for file = 0 to 7 do
        for offset = 0 to 99 do
          Fs.stage_write fs ~vol ~file ~offset
        done
      done;
      ignore (Fs.run_cp fs));
  Pagestore.with_mmap_dir dir (fun () ->
      let fs = Fs.create (config ~seed:13 ()) in
      let findings = Iron.check fs in
      check_bool "800 orphan blocks" true (List.mem (Iron.Orphan_blocks { count = 800 }) findings);
      check_bool "800 orphan VVBNs" true
        (List.mem (Iron.Orphan_vvbns { vol = "vol0"; count = 800 }) findings);
      ignore (Iron.repair ~authority:Iron.Container_authority fs);
      check_int "iron clean after the heal" 0 (List.length (Iron.check fs));
      let vol = (Fs.vols fs).(0) in
      check_int "volume fully free" (Flexvol.blocks vol) (Flexvol.free_blocks vol))

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

(* A pass verifies every page of its budget: on a 4 x 65536-block rig
   (18 tracked pages) the cursor starts 12 pages before the wrap, so the
   rotted page 0 is the pass's 13th probe, after the wrap. *)
let test_scrub_pass_covers_budget () =
  let dir = fresh_dir "wafl_test_integrity_budget" in
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
          ~run:{ Config.default_run with Config.mmap_dir = Some dir; faults = Some spec }
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
      check_int "tracked pages" 18 total;
      Fs.scrub_cursor fs := total - 12;
      let stats = Scrub.pass fs ~budget:18 in
      check_int "whole budget verified" 18 stats.Scrub.pages_verified;
      check_int "rotted page found" 1 stats.Scrub.bad_pages;
      check_int "and healed" 1 stats.Scrub.healed;
      check_int "iron clean after heal" 0 (List.length (Iron.check fs)))

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
      let w = Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) ~vols:[||] in
      let dst = Array.make 256 0 in
      ignore (Write_alloc.allocate_pvbns_into w ~dst 256);
      let before = Gc.minor_words () in
      ignore (Write_alloc.allocate_pvbns_into w ~dst 256);
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "sealed mmap consume window allocates nothing (%.0f words)" words)
        true (words = 0.0))

(* --- determinism: anonymous and file-mapped stores, bit for bit ---

   Every stage reads and writes the off-heap stores through one
   interface, so a run leaves the same state whether they are anonymous
   memory or file-mapped ([--mmap]). *)

let aged_config ?run () =
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
    ~aggregate_policy:Config.Best_aa ?run ~seed:11 ()

(* Overwrite pressure leaves nonuniform free space behind, so the scans
   under test have real structure to reproduce. *)
let aged_fs ?run () =
  let fs = Fs.create (aged_config ?run ()) in
  let vol = (Fs.vols fs).(0) in
  for cp = 0 to 2 do
    for i = 0 to 1023 do
      Fs.stage_write fs ~vol ~file:(cp mod 2) ~offset:i
    done;
    ignore (Fs.run_cp fs)
  done;
  fs

(* [f run] once on anonymous stores and once on fresh file-mapped ones
   under [name]: (anonymous result, mapped result). *)
let both_stores name f =
  let anonymous = f Config.default_run in
  let dir = fresh_dir name in
  let mapped =
    Pagestore.with_mmap_dir dir (fun () ->
        f { Config.default_run with Config.mmap_dir = Some dir })
  in
  (anonymous, mapped)

(* The full observable cache state: every space's score array plus the
   persisted TopAA bytes of its cache (heap contents / HBPS pages). *)
let cache_state fs =
  Array.map
    (fun (s : Space.t) ->
      (Array.copy s.Space.scores, Option.bind s.Space.cache (fun _ -> Space.save_topaa s)))
    (Fs.spaces fs)

let check_bitmaps_equal label fs_a fs_b =
  check_bool (label ^ ": aggregate bitmap")
    true
    (Bitmap.equal
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_a)))
       (Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs_b))));
  Array.iteri
    (fun i va ->
      check_bool
        (Printf.sprintf "%s: vol %d bitmap" label i)
        true
        (Bitmap.equal
           (Metafile.snapshot (Flexvol.metafile va))
           (Metafile.snapshot (Flexvol.metafile (Fs.vols fs_b).(i)))))
    (Fs.vols fs_a)

let test_mount_full_scan_determinism () =
  let image = Mount.snapshot (aged_fs ()) in
  let (fs_a, timing_a), (fs_m, timing_m) =
    both_stores "wafl_test_integrity_det_mount" (fun run ->
        Mount.mount ~run image ~with_topaa:false)
  in
  check_bool "cache state identical" true (cache_state fs_m = cache_state fs_a);
  check_bitmaps_equal "full-scan mount" fs_m fs_a;
  check_int "same pages scanned" timing_a.Mount.metafile_pages_scanned
    timing_m.Mount.metafile_pages_scanned;
  Alcotest.(check (float 0.0)) "same modeled ready_us" timing_a.Mount.ready_us
    timing_m.Mount.ready_us

let test_rebuild_caches_determinism () =
  let anonymous, mapped =
    both_stores "wafl_test_integrity_det_rebuild" (fun run ->
        let fs = aged_fs ~run () in
        Rebuild.request ~vols:(Fs.vols fs) (Fs.aggregate fs) Rebuild.Full;
        cache_state fs)
  in
  check_bool "rebuild identical" true (mapped = anonymous)

(* Score drift injected in a range and a volume so the scan has findings
   to order. *)
let drifted_fs ?run () =
  let fs = aged_fs ?run () in
  let r = (Aggregate.ranges (Fs.aggregate fs)).(1) in
  let scores = r.Aggregate.space.Space.scores in
  scores.(3) <- scores.(3) + 1;
  scores.(Array.length scores - 1) <- scores.(Array.length scores - 1) + 2;
  let vol = (Fs.vols fs).(0) in
  let vol_scores = (Flexvol.space vol).Space.scores in
  vol_scores.(Array.length vol_scores - 1) <- vol_scores.(Array.length vol_scores - 1) + 1;
  fs

let test_iron_determinism () =
  let anonymous, mapped =
    both_stores "wafl_test_integrity_det_iron" (fun run -> Iron.check (drifted_fs ~run ()))
  in
  check_bool "drift detected" true (List.length anonymous >= 3);
  check_bool "findings identical (content and order)" true (mapped = anonymous)

let test_whole_cp_determinism () =
  let (aged_a, report_a, fs_a), (aged_m, report_m, fs_m) =
    both_stores "wafl_test_integrity_det_cp" (fun run ->
        let fs = aged_fs ~run () in
        let aged = cache_state fs in
        let vol = (Fs.vols fs).(0) in
        for i = 0 to 1023 do
          (* overwrites: every CP after the first queues frees *)
          Fs.stage_write fs ~vol ~file:0 ~offset:i
        done;
        (aged, Fs.run_cp fs, fs))
  in
  check_bool "aged cache state identical" true (aged_m = aged_a);
  check_bool "reports identical" true (report_m = report_a);
  check_bool "cache state identical" true (cache_state fs_m = cache_state fs_a);
  check_bitmaps_equal "whole CP" fs_m fs_a

(* The crash matrix on file-mapped stores with lazy remounts reaches the
   same CP crash points as the anonymous eager one, and recovers clean. *)
let test_crash_matrix_bigarray_lazy () =
  let eager = Crash_matrix.run ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 () in
  check_bool "eager matrix clean" true (eager.Crash_matrix.violations = []);
  let dir = fresh_dir "wafl_test_integrity_cm" in
  let lazy_mapped =
    Pagestore.with_mmap_dir dir (fun () ->
        Crash_matrix.run
          ~run:{ Config.default_run with Config.mmap_dir = Some dir }
          ~lazy_rebuild:true ~seed:5 ~warmup_cps:1 ~ops_per_cp:60 ())
  in
  (* mapped stores add the integrity plane's own crash points *)
  let store_points =
    List.filter (fun p -> not (String.starts_with ~prefix:"integrity." p))
  in
  check_bool "same crash-point sequence on mapped stores" true
    (store_points lazy_mapped.Crash_matrix.points = eager.Crash_matrix.points);
  check_bool "mmap + lazy-remount matrix clean" true (lazy_mapped.Crash_matrix.violations = [])

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
          Alcotest.test_case "restart orphans found and freed" `Quick test_restart_orphans;
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
          Alcotest.test_case "pass covers its whole budget" `Quick
            test_scrub_pass_covers_budget;
          Alcotest.test_case "consume window zero-alloc" `Quick test_sealed_consume_zero_alloc;
          Alcotest.test_case "dropped systems collected" `Quick test_scrubbed_systems_collected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "mount full scan" `Quick test_mount_full_scan_determinism;
          Alcotest.test_case "rebuild caches" `Quick test_rebuild_caches_determinism;
          Alcotest.test_case "iron findings" `Quick test_iron_determinism;
          Alcotest.test_case "whole CP" `Quick test_whole_cp_determinism;
          Alcotest.test_case "crash matrix bigarray + lazy" `Slow test_crash_matrix_bigarray_lazy;
        ] );
    ]
