(* Tests for Wafl_fault: spec parsing, deterministic injection, health
   transitions, the allocator's quarantine/retry behaviour under faults,
   and the exhaustive CP crash-point matrix. *)

open Wafl_core
open Wafl_fault
open Wafl_telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- spec parsing --- *)

let test_spec_roundtrip () =
  let s =
    "seed=7,transient=0.05,burst=3,torn=0.01,spike=0.02:400,retries=4,backoff=100,\
     bad=0:1024+64,bad=1:0+32,offline=2@5000,degraded=1@2000"
  in
  match Fault.spec_of_string s with
  | Error msg -> Alcotest.fail msg
  | Ok spec -> (
    check_int "seed" 7 spec.Fault.seed;
    check_int "burst" 3 spec.Fault.transient_burst_max;
    check_int "retries" 4 spec.Fault.retry_budget;
    check_int "bad ranges" 2 (List.length spec.Fault.bad_ranges);
    check_bool "offline" true (spec.Fault.offline_after = [ (2, 5000) ]);
    check_bool "degraded" true (spec.Fault.degraded_after = [ (1, 2000) ]);
    let printed = Fault.spec_to_string spec in
    match Fault.spec_of_string printed with
    | Ok again -> check_bool "round-trips" true (again = spec)
    | Error msg -> Alcotest.fail ("re-parse failed: " ^ msg))

let test_spec_default_roundtrip () =
  match Fault.spec_of_string (Fault.spec_to_string Fault.default_spec) with
  | Ok again -> check_bool "default round-trips" true (again = Fault.default_spec)
  | Error msg -> Alcotest.fail msg

(* Reprints that used to lose digits (%g keeps 6) or drop the spike
   duration must now parse back to the spec they came from. *)
let test_spec_reprint_exact () =
  List.iter
    (fun s ->
      match Fault.spec_of_string s with
      | Error msg -> Alcotest.fail msg
      | Ok spec ->
        check_bool (s ^ " reprints exactly") true
          (Fault.spec_of_string (Fault.spec_to_string spec) = Ok spec))
    [ "seed=9,spike=0.9:5000063"; "spike=0:50000"; "transient=0.9911048" ]

let gen_spec =
  let open QCheck.Gen in
  let prob = oneof [ float_bound_inclusive 1.0; oneofl [ 0.0; 1.0; 0.9911048 ] ] in
  let us = oneof [ map float_of_int (int_bound 10_000_000); float_bound_inclusive 1e7 ] in
  let n = int_bound 100_000 in
  let ats = list_size (int_bound 2) (pair n n) in
  let pages = list_size (int_bound 2) (triple n n (int_range 1 1000)) in
  let* seed = int and* transient_p = prob and* transient_burst_max = int_range 1 16 in
  let* torn_p = prob and* spike_p = prob and* spike_us = us in
  let* retry_budget = int_bound 16 and* retry_backoff_us = us in
  let* bad_ranges = list_size (int_bound 2) (triple n n n) in
  let* offline_after = ats and* degraded_after = ats in
  let+ rot_pages = pages and+ lost_pages = pages in
  {
    Fault.seed;
    transient_p;
    transient_burst_max;
    torn_p;
    spike_p;
    spike_us;
    retry_budget;
    retry_backoff_us;
    bad_ranges;
    offline_after;
    degraded_after;
    rot_pages;
    lost_pages;
  }

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"printer round-trips" ~count:500
    (QCheck.make ~print:Fault.spec_to_string gen_spec)
    (fun s -> Fault.spec_of_string (Fault.spec_to_string s) = Ok s)

let test_spec_rejects_garbage () =
  let bad s =
    match Fault.spec_of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
    | Error _ -> ()
  in
  bad "transient=1.5";
  bad "burst=0";
  bad "retries=-1";
  bad "nonsense=1";
  bad "bad=0:10";
  bad "offline=xyz"

(* --- deterministic injection --- *)

let spec_all_transient =
  {
    Fault.default_spec with
    Fault.seed = 11;
    transient_p = 0.2;
    torn_p = 0.05;
    spike_p = 0.05;
    spike_us = 100.0;
  }

let test_determinism () =
  let run () =
    let dev = Fault.device (Fault.create spec_all_transient) ~id:0 in
    List.init 2000 (fun i -> Fault.write dev ~block:i)
  in
  check_bool "same spec, same sequence" true (run () = run ())

let test_substream_independence () =
  (* device 1's sequence must not depend on how much device 0 wrote *)
  let seq ~noise =
    let plane = Fault.create spec_all_transient in
    let d0 = Fault.device plane ~id:0 in
    let d1 = Fault.device plane ~id:1 in
    for i = 1 to noise do
      ignore (Fault.write d0 ~block:i)
    done;
    List.init 500 (fun i -> Fault.write d1 ~block:i)
  in
  check_bool "independent substreams" true (seq ~noise:0 = seq ~noise:777)

(* --- health transitions and bad ranges --- *)

let test_offline_transition () =
  let spec =
    { Fault.default_spec with Fault.transient_p = 0.0; offline_after = [ (0, 10) ] }
  in
  let dev = Fault.device (Fault.create spec) ~id:0 in
  (* the transition fires on the 10th I/O itself *)
  for i = 1 to 9 do
    check_bool "healthy writes succeed" true (Fault.write dev ~block:i = Fault.Written)
  done;
  check_bool "online before" true (Fault.online dev);
  check_bool "10th write fails" true (Fault.write dev ~block:10 = Fault.Failed);
  check_bool "offline after" false (Fault.online dev);
  check_bool "range probe sees offline" true (Fault.range_faulty dev ~start:0 ~len:1);
  check_int "failure counted" 1 (Fault.stats dev).Fault.failed

let test_degraded_doubles_transients () =
  let count_transients p degraded =
    let spec =
      {
        Fault.default_spec with
        Fault.transient_p = p;
        transient_burst_max = 1;
        degraded_after = (if degraded then [ (0, 0) ] else []);
      }
    in
    let dev = Fault.device (Fault.create spec) ~id:0 in
    for i = 1 to 5000 do
      ignore (Fault.write dev ~block:i)
    done;
    (Fault.stats dev).Fault.injected_transient
  in
  let healthy = count_transients 0.02 false in
  let degraded = count_transients 0.02 true in
  check_bool "degraded injects roughly twice as often" true
    (degraded > healthy + (healthy / 2))

let test_bad_range () =
  let spec =
    { Fault.default_spec with Fault.transient_p = 0.0; bad_ranges = [ (0, 100, 50) ] }
  in
  let dev = Fault.device (Fault.create spec) ~id:0 in
  check_bool "below range ok" true (Fault.write dev ~block:99 = Fault.Written);
  check_bool "in range fails" true (Fault.write dev ~block:100 = Fault.Failed);
  check_bool "end of range fails" true (Fault.write dev ~block:149 = Fault.Failed);
  check_bool "past range ok" true (Fault.write dev ~block:150 = Fault.Written);
  check_bool "probe overlap" true (Fault.range_faulty dev ~start:90 ~len:20);
  check_bool "probe disjoint" false (Fault.range_faulty dev ~start:0 ~len:100)

let test_transient_retries_survive () =
  (* burst max below the retry budget: every transient is outlived *)
  let spec = { Fault.default_spec with Fault.transient_p = 1.0 } in
  let dev = Fault.device (Fault.create spec) ~id:0 in
  for i = 1 to 200 do
    check_bool "retried to success" true (Fault.write dev ~block:i = Fault.Written)
  done;
  let st = Fault.stats dev in
  check_int "every write drew a burst" 200 st.Fault.injected_transient;
  check_int "every burst survived" 200 st.Fault.retries_ok;
  check_int "nothing failed" 0 st.Fault.failed;
  check_bool "backoff charged" true (st.Fault.penalty_us > 0.0)

(* --- the write path under an installed fault plane --- *)

let small_config ?faults ?(seed = 7) () =
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
    ~run:{ Config.default_run with Config.faults }
    ~seed ()

let counter tel name =
  match Registry.find (Telemetry.registry tel) name with
  | Some (Registry.Counter c) -> Registry.count c
  | _ -> 0

let test_cp_under_transients () =
  (* the default profile injects transients the retry budget outlives:
     allocation never fails and the CP report carries the fault stats *)
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      let fs = Fs.create (small_config ~faults:Fault.default_spec ()) in
      let vol = Fs.vol fs "vol0" in
      for offset = 0 to 4999 do
        Fs.stage_write fs ~vol ~file:1 ~offset
      done;
      let report = Fs.run_cp fs in
      check_int "all ops placed" 5000 report.Cp.blocks_allocated;
      match report.Cp.fault_totals with
      | None -> Alcotest.fail "no fault totals on a faulted system"
      | Some fs_totals ->
        check_bool "transients injected" true (fs_totals.Fault.injected_transient > 0);
        check_int "all bursts survived" fs_totals.Fault.injected_transient
          fs_totals.Fault.retries_ok;
        check_int "no write failed" 0 fs_totals.Fault.failed);
  check_bool "retries_ok counter" true (counter tel "fault.retries_ok" > 0);
  check_int "no failures counted" 0 (counter tel "fault.write_failures")

let test_bad_range_quarantines_aas () =
  (* device 0 of range 0 is entirely bad: every AA of range 0 overlaps it,
     so the allocator quarantines them all and places everything in
     range 1 — allocation still never fails *)
  let spec =
    {
      Fault.default_spec with
      Fault.transient_p = 0.0;
      bad_ranges = [ (0, 0, 8192) ];
    }
  in
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      let fs = Fs.create (small_config ~faults:spec ()) in
      let vol = Fs.vol fs "vol0" in
      for offset = 0 to 4999 do
        Fs.stage_write fs ~vol ~file:1 ~offset
      done;
      let report = Fs.run_cp fs in
      check_int "all ops placed despite the bad device" 5000 report.Cp.blocks_allocated;
      (* everything landed outside the faulty range *)
      let ranges = Aggregate.ranges (Fs.aggregate fs) in
      let r1_base = ranges.(1).Aggregate.base in
      for offset = 0 to 4999 do
        match Flexvol.read_file vol ~file:1 ~offset with
        | None -> Alcotest.fail "op lost"
        | Some vvbn ->
          let pvbn = Option.get (Flexvol.pvbn_of_vvbn vol vvbn) in
          check_bool "placed in the healthy range" true (pvbn >= r1_base)
      done);
  check_bool "AAs quarantined" true (counter tel "fault.aa_quarantined" > 0)

let test_torn_ftl_pages () =
  let spec = { Fault.default_spec with Fault.transient_p = 0.0; torn_p = 1.0 } in
  let dev = Fault.device (Fault.create spec) ~id:0 in
  let ftl = Wafl_device.Ftl.create ~logical_blocks:4096 () in
  Wafl_device.Ftl.set_fault ftl (Some dev);
  Wafl_device.Ftl.write_batch ftl (Array.init 64 Fun.id) ~pos:0 ~len:64;
  let st = Wafl_device.Ftl.stats ftl in
  check_int "pages programmed (cost paid)" 64 st.Wafl_device.Ftl.host_pages_written;
  check_int "but none live (content garbage)" 0
    (Wafl_device.Ftl.live_pages_in ftl ~start:0 ~len:4096);
  check_int "torn counted" 64 (Fault.stats dev).Fault.torn

(* --- crash points --- *)

let test_crash_point_machinery () =
  Crash.record ();
  Crash.point "a";
  Crash.point "b";
  Crash.point "a";
  check_bool "recorded sequence" true (Crash.recorded () = [ "a"; "b"; "a" ]);
  check_int "count" 3 (Crash.count ());
  Crash.arm ~at:1;
  Crash.point "x";
  (try
     Crash.point "y";
     Alcotest.fail "armed point did not raise"
   with Crash.Crashed { point; index } ->
     check_string "crashed at" "y" point;
     check_int "at index" 1 index);
  Crash.disarm ();
  Crash.point "z" (* off again: no effect *)

(* Each range's [cp.device_flush] point fires just before that range
   flushes, so a crash at the second range's point leaves a partly
   flushed CP: the first range's FTL holds this CP's pages, the second
   range's none. *)
let test_crash_between_range_flushes () =
  let rg =
    { Config.media = Config.Ssd Wafl_device.Profile.default_ssd; data_devices = 4;
      parity_devices = 1; device_blocks = 2048; aa_stripes = None }
  in
  let staged () =
    let fs =
      Fs.create
        (Config.make ~raid_groups:[ rg; rg ]
           ~vols:[ Config.default_vol ~name:"vol0" ~blocks:16384 ]
           ~aggregate_policy:Config.Best_aa ~seed:3 ())
    in
    let vol = Fs.vol fs "vol0" in
    for offset = 0 to 9999 do
      Fs.stage_write fs ~vol ~file:1 ~offset
    done;
    fs
  in
  let host_pages fs =
    Array.map
      (fun (r : Aggregate.range) ->
        match r.Aggregate.device with
        | Aggregate.Ssd_sim ftl -> (Wafl_device.Ftl.stats ftl).Wafl_device.Ftl.host_pages_written
        | _ -> Alcotest.fail "not an SSD range")
      (Aggregate.ranges (Fs.aggregate fs))
  in
  (* the uncrashed CP writes to both ranges; record where its second
     range flush point falls *)
  let clean = staged () in
  Crash.record ();
  ignore (Fs.run_cp clean);
  let points = Crash.recorded () in
  Crash.disarm ();
  let want = host_pages clean in
  check_bool "the CP spans both ranges" true (want.(0) > 0 && want.(1) > 0);
  let second_flush =
    let rec find i seen = function
      | [] -> Alcotest.fail "fewer than two cp.device_flush points"
      | "cp.device_flush" :: _ when seen -> i
      | p :: rest -> find (i + 1) (seen || p = "cp.device_flush") rest
    in
    find 0 false points
  in
  let fs = staged () in
  Crash.arm ~at:second_flush;
  Fun.protect ~finally:Crash.disarm (fun () ->
      match Fs.run_cp fs with
      | _ -> Alcotest.fail "armed CP did not crash"
      | exception Crash.Crashed { point; _ } -> check_string "crashed at" "cp.device_flush" point);
  let got = host_pages fs in
  check_int "range 0 flushed" want.(0) got.(0);
  check_int "range 1 not flushed" 0 got.(1)

(* A crash point that unwinds a CP must close every span the CP entered:
   afterwards no span kind is open.  [integrity.seal] fires only on
   file-mapped stores, so the systems run under a map directory. *)
let test_crash_closes_spans () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wafl_test_fault_spans" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  let rg =
    { Config.media = Config.Hdd Wafl_device.Profile.default_hdd; data_devices = 4;
      parity_devices = 1; device_blocks = 1024; aa_stripes = Some 128 }
  in
  let staged () =
    let fs =
      Fs.create
        (Config.make ~raid_groups:[ rg; rg ]
           ~vols:[ Config.default_vol ~name:"vol0" ~blocks:4096 ]
           ~run:{ Config.default_run with Config.mmap_dir = Some dir }
           ~seed:3 ())
    in
    let vol = Fs.vol fs "vol0" in
    for offset = 0 to 499 do
      Fs.stage_write fs ~vol ~file:(offset mod 3) ~offset
    done;
    fs
  in
  Wafl_bitmap.Pagestore.with_mmap_dir dir (fun () ->
      let clean = staged () in
      Crash.record ();
      ignore (Fs.run_cp clean);
      let points = Crash.recorded () in
      Crash.disarm ();
      List.iter
        (fun point ->
          let rec first i = function
            | [] -> Alcotest.fail (point ^ " is not reached by the CP")
            | p :: _ when p = point -> i
            | _ :: rest -> first (i + 1) rest
          in
          let at = first 0 points in
          let tel = Telemetry.create () in
          Telemetry.with_installed tel (fun () ->
              let fs = staged () in
              Crash.arm ~at;
              Fun.protect ~finally:Crash.disarm (fun () ->
                  match Fs.run_cp fs with
                  | _ -> Alcotest.fail "armed CP did not crash"
                  | exception Crash.Crashed { point = p; _ } -> check_string "crashed at" point p));
          List.iter
            (fun k ->
              check_int
                (Printf.sprintf "%s open after a crash at %s" (Span.name k) point)
                0
                (Span.open_now (Telemetry.spans tel) k))
            Span.all)
        [ "cp.place_vol"; "cp.vol_free_commit"; "integrity.seal" ])

let test_crash_matrix_small () =
  let r = Crash_matrix.run ~with_cleaner:true ~seed:3 ~warmup_cps:1 ~ops_per_cp:150 () in
  check_bool "points enumerated" true (List.length r.Crash_matrix.points > 5);
  check_bool "cleaner point reached" true
    (List.mem "cleaner.range_pass" r.Crash_matrix.points);
  check_bool "topaa point reached" true (List.mem "cp.topaa_write" r.Crash_matrix.points);
  (match r.Crash_matrix.violations with
  | [] -> ()
  | v :: _ -> Alcotest.fail (Format.asprintf "%a" Crash_matrix.pp_violation v));
  check_int "one run per point plus enumeration"
    (List.length r.Crash_matrix.points + 1)
    r.Crash_matrix.runs

(* Penalties are whole microseconds, as the fault plane's backoff and
   spike costs are, so the float field round-trips exactly too. *)
let gen_stats =
  let open QCheck.Gen in
  let n = int_bound 1_000_000 in
  map
    (fun ((ios, injected_transient, retries, retries_ok), (torn, failed, spikes, pen)) ->
      { Fault.ios; injected_transient; retries; retries_ok; torn; failed; spikes;
        penalty_us = float_of_int pen })
    (pair (quad n n n n) (quad n n n n))

let prop_add_diff_inverse =
  QCheck.Test.make ~name:"diff_stats undoes add_stats" ~count:200
    (QCheck.make (QCheck.Gen.pair gen_stats gen_stats))
    (fun (a, b) -> Fault.diff_stats ~before:a ~after:(Fault.add_stats a b) = b)

let () =
  Alcotest.run "wafl_fault"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "default round-trip" `Quick test_spec_default_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "reprint exact" `Quick test_spec_reprint_exact;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ("stats", [ QCheck_alcotest.to_alcotest prop_add_diff_inverse ]);
      ( "injection",
        [
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "independent substreams" `Quick test_substream_independence;
          Alcotest.test_case "offline transition" `Quick test_offline_transition;
          Alcotest.test_case "degraded doubles transients" `Quick
            test_degraded_doubles_transients;
          Alcotest.test_case "bad range" `Quick test_bad_range;
          Alcotest.test_case "transients outlived by retries" `Quick
            test_transient_retries_survive;
        ] );
      ( "write path",
        [
          Alcotest.test_case "cp under transients" `Quick test_cp_under_transients;
          Alcotest.test_case "bad range quarantines AAs" `Quick
            test_bad_range_quarantines_aas;
          Alcotest.test_case "torn ftl pages" `Quick test_torn_ftl_pages;
        ] );
      ( "crash",
        [
          Alcotest.test_case "point machinery" `Quick test_crash_point_machinery;
          Alcotest.test_case "crash between range flushes" `Quick
            test_crash_between_range_flushes;
          Alcotest.test_case "crashed CP closes its spans" `Quick test_crash_closes_spans;
          Alcotest.test_case "small matrix recovers clean" `Slow test_crash_matrix_small;
        ] );
    ]
