(* Tests for the request-latency subsystem: Hdrhist bucket math and
   quantile error bounds, the modeled per-op clock and its allocation
   profile, exemplar blame, SLO burn rates, and the prom/health
   renderings. *)

open Wafl_telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Hdrhist --- *)

let test_hdrhist_exact_small () =
  let h = Hdrhist.create () in
  for v = 0 to 63 do
    Hdrhist.record h v
  done;
  check_int "count" 64 (Hdrhist.count h);
  check_int "sum" (63 * 64 / 2) (Hdrhist.sum h);
  check_int "min" 0 (Hdrhist.min_value h);
  check_int "max" 63 (Hdrhist.max_value h);
  (* values under 64 land in exact unit buckets *)
  for v = 0 to 63 do
    let lo, hi = Hdrhist.bucket_bounds (Hdrhist.index_of v) in
    check_int "unit bucket lo" v lo;
    check_int "unit bucket hi" v hi
  done

let test_hdrhist_relative_error_bound () =
  (* every bucket's upper bound is within 1/32 of its lower bound *)
  let v = ref 64 in
  while !v < 1_000_000_000 do
    let lo, hi = Hdrhist.bucket_bounds (Hdrhist.index_of !v) in
    check_bool "value in bucket" true (lo <= !v && !v <= hi);
    check_bool "width <= lo/32" true (hi - lo + 1 <= (lo / 32) + 1);
    v := !v * 3 + 7
  done

(* Quantiles against an exact sorted reference: the estimate must be at
   least the true order statistic and overshoot by at most the bucket
   width (1/32 relative). *)
let test_hdrhist_quantile_vs_sorted () =
  let n = 10_000 in
  let values = Array.make n 0 in
  let x = ref 123_456_789 in
  for i = 0 to n - 1 do
    (* deterministic LCG, spanning several decades *)
    x := ((!x * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
    values.(i) <- 1 + (!x mod 10_000_000)
  done;
  let h = Hdrhist.create () in
  Array.iter (Hdrhist.record h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = sorted.(rank - 1) in
      let est = Hdrhist.quantile h q in
      check_bool
        (Printf.sprintf "q%.3f: est %d >= exact %d" q est exact)
        true (est >= exact);
      check_bool
        (Printf.sprintf "q%.3f: est %d <= exact %d + 1/32" q est exact)
        true
        (est <= exact + (exact / 32) + 1))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

(* --- the modeled clock --- *)

let test_cp_record_latency_bounds () =
  let lat = Latency.create () in
  let v = Latency.vol_slot lat ~uid:1 ~name:"v" in
  let n = 10 in
  Latency.cp_record lat ~groups:[ (v, n, 0) ] ~pages:0 ~cache_work:0 ~candidates:0
    ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0;
  (* pure-CPU CP: total = cpu_base * n; first CP's arrival window is its
     own duration, so op latencies span [total, total * (2n-1)/n) *)
  let total_ns =
    int_of_float (Latency.model.cpu_base_us_per_op *. float_of_int n)
    * 1000
  in
  let h = Latency.hist lat in
  check_int "one op per staged write" n (Hdrhist.count h);
  check_bool "min >= CP duration" true (Hdrhist.min_value h >= total_ns);
  check_bool "max < 2x CP duration" true (Hdrhist.max_value h < 2 * total_ns);
  check_int "cps" 1 (Latency.cps_recorded lat)

let test_cp_record_per_vol_keying () =
  let lat = Latency.create () in
  let a = Latency.vol_slot lat ~uid:1 ~name:"va" in
  let b = Latency.vol_slot lat ~uid:2 ~name:"vb" in
  check_bool "distinct slots" true (a <> b);
  check_int "slot stable on re-lookup" a (Latency.vol_slot lat ~uid:1 ~name:"va");
  Latency.cp_record lat
    ~groups:[ (a, 30, 0); (b, 0, 70) ]
    ~pages:0 ~cache_work:0 ~candidates:0 ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0
    ~harvest_ns:0;
  check_int "vol a count" 30 (Hdrhist.count (Latency.hist ~vol:a lat));
  check_int "vol b count" 70 (Hdrhist.count (Latency.hist ~vol:b lat));
  check_int "op split: overwrites on b" 70
    (Hdrhist.count (Latency.cell lat ~op:Latency.Overwrite ~vol:b));
  check_int "op split: no writes on b" 0
    (Hdrhist.count (Latency.cell lat ~op:Latency.Write ~vol:b));
  check_int "overall count" 100 (Hdrhist.count (Latency.hist lat));
  check_bool "vols registered in order" true
    (Latency.vols lat = [ (a, "va"); (b, "vb") ])

let test_exemplar_blames_device_flush () =
  let lat = Latency.create () in
  let v = Latency.vol_slot lat ~uid:1 ~name:"v" in
  (* CP 1 arms the exemplar threshold *)
  Latency.cp_record lat ~groups:[ (v, 100, 0) ] ~pages:0 ~cache_work:0 ~candidates:0
    ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0;
  (* CP 2 is much slower and spike-dominated: its tail must be captured
     and blamed on the device flush *)
  Latency.cp_record lat ~groups:[ (v, 100, 0) ] ~pages:0 ~cache_work:0 ~candidates:0
    ~device_us:5_000_000.0 ~spike_us:4_000_000.0 ~pick_ns:0 ~harvest_ns:0;
  let exs = Latency.exemplars lat in
  check_bool "captured exemplars" true (exs <> []);
  let top = List.hd exs in
  check_bool "blames device flush" true (top.Latency.ex_phase = Span.Device_flush);
  check_bool "from a later cp than the armer" true (top.Latency.ex_cp >= 1);
  check_bool "stack names the phase" true
    (contains (Latency.phase_stack top.Latency.ex_phase) "device_flush")

let test_exemplar_blames_activemap () =
  let lat = Latency.create () in
  let v = Latency.vol_slot lat ~uid:1 ~name:"v" in
  Latency.cp_record lat ~groups:[ (v, 100, 0) ] ~pages:0 ~cache_work:0 ~candidates:0
    ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0;
  (* metafile pages dwarf every other cost component *)
  Latency.cp_record lat ~groups:[ (v, 100, 0) ] ~pages:100_000 ~cache_work:0
    ~candidates:0 ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0;
  let exs = Latency.exemplars lat in
  check_bool "captured exemplars" true (exs <> []);
  check_bool "blames activemap commit" true
    ((List.hd exs).Latency.ex_phase = Span.Activemap_commit)

(* --- SLO --- *)

let test_slo_parse_errors () =
  let bad s hint =
    match Slo.objective_of_string s with
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
    | Error msg -> check_bool (s ^ " explains itself") true (contains msg hint)
  in
  (* malformed shapes name the grammar; well-shaped but out-of-range
     values name the offending field *)
  List.iter
    (fun s -> bad s "NAME:MS:TARGET")
    [ ""; "writes"; "writes:5"; "writes:abc:0.9"; "a:b:c" ];
  bad "writes:5:1.5" "target must be a fraction in (0,1)";
  bad "writes:0:0.9" "threshold must be > 0 ms";
  match Slo.objective_of_string "writes:5:0.99" with
  | Error e -> Alcotest.fail e
  | Ok o ->
    check_bool "name" true (o.Slo.name = "writes");
    check_bool "roundtrip" true (Slo.objective_to_string o = "writes:5:0.99")

(* %g kept 6 digits: w:1:0.9911048 used to reprint as w:1:0.991105. *)
let test_slo_reprint_exact () =
  match Slo.objective_of_string "w:1:0.9911048" with
  | Error e -> Alcotest.fail e
  | Ok o ->
    check_bool "reprints exactly" true (Slo.objective_to_string o = "w:1:0.9911048");
    check_bool "re-parses equal" true (Slo.objective_of_string (Slo.objective_to_string o) = Ok o)

let prop_slo_roundtrip =
  let gen =
    let open QCheck.Gen in
    let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* threshold_ms =
      oneof [ map float_of_int (int_range 1 100_000); float_range 1e-6 1e6 ]
    in
    let+ target =
      oneof [ float_range 1e-9 (1. -. epsilon_float); oneofl [ 0.99; 0.9911048 ] ]
    in
    match Slo.objective ~name ~threshold_ms ~target with
    | Ok o -> o
    | Error e -> failwith e
  in
  QCheck.Test.make ~name:"printer round-trips" ~count:500
    (QCheck.make ~print:Slo.objective_to_string gen)
    (fun o -> Slo.objective_of_string (Slo.objective_to_string o) = Ok o)

(* Two objectives under one name would share their slo.NAME.* gauges and
   counters: the pane showed one breaching while the exported burn gauge
   held the other's value.  Creation must refuse the pair. *)
let test_slo_duplicate_names () =
  let obj threshold_ms target =
    match Slo.objective ~name:"w" ~threshold_ms ~target with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  match Slo.create [ obj 1.0 0.99; obj 100000.0 0.5 ] with
  | _ -> Alcotest.fail "duplicate SLO names accepted"
  | exception Invalid_argument msg -> check_bool "names the objective" true (contains msg "\"w\"")

let test_slo_burn_and_breach () =
  let o =
    match Slo.objective ~name:"w" ~threshold_ms:1.0 ~target:0.9 with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let slo = Slo.create ~fast_window:2 ~slow_window:4 [ o ] in
  (* 50% violations against a 10% budget: burn 5.0 in both windows *)
  let tick v = Slo.cp_tick slo ~ops:100 ~violations:[| v |] in
  ignore (tick 50);
  let r = List.hd (tick 50) in
  check_bool "fast burn 5.0" true (abs_float (r.Slo.r_burn_fast -. 5.0) < 1e-9);
  check_bool "slow burn 5.0" true (abs_float (r.Slo.r_burn_slow -. 5.0) < 1e-9);
  check_bool "breach" true r.Slo.r_breach;
  (* clean CPs wash the fast window first: breach clears *)
  ignore (tick 0);
  let r = List.hd (tick 0) in
  check_bool "fast burn decays to 0" true (r.Slo.r_burn_fast < 1e-9);
  check_bool "slow window remembers" true (r.Slo.r_burn_slow > 1.0);
  check_bool "no breach once fast is clean" true (not r.Slo.r_breach)

(* Burn rates are exact for decimal targets: a window where every op
   breaches reads 1 / (1 - target) exactly, and one exactly at budget
   reads 1.0, which is not a breach (both windows must exceed 1.0). *)
let test_slo_burn_exact () =
  let slo_of target =
    match Slo.objective ~name:"w" ~threshold_ms:1.0 ~target with
    | Ok o -> Slo.create ~fast_window:2 ~slow_window:4 [ o ]
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (target, burn) ->
      let r = List.hd (Slo.cp_tick (slo_of target) ~ops:100 ~violations:[| 100 |]) in
      let name = Printf.sprintf "every op breaches %g" target in
      Alcotest.(check (float 0.0)) (name ^ ", fast") burn r.Slo.r_burn_fast;
      Alcotest.(check (float 0.0)) (name ^ ", slow") burn r.Slo.r_burn_slow)
    [ (0.9, 10.); (0.95, 20.); (0.99, 100.); (0.999, 1000.); (0.9999, 10000.) ];
  let slo = slo_of 0.9 in
  ignore (Slo.cp_tick slo ~ops:100 ~violations:[| 10 |]);
  let r = List.hd (Slo.cp_tick slo ~ops:100 ~violations:[| 10 |]) in
  Alcotest.(check (float 0.0)) "at budget, fast" 1.0 r.Slo.r_burn_fast;
  Alcotest.(check (float 0.0)) "at budget, slow" 1.0 r.Slo.r_burn_slow;
  check_bool "exactly at budget is no breach" false r.Slo.r_breach

let test_slo_violations_from_cp_record () =
  let o =
    match Slo.objective ~name:"tight" ~threshold_ms:0.001 ~target:0.999 with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let lat = Latency.create ~slo:(Slo.create [ o ]) () in
  let v = Latency.vol_slot lat ~uid:1 ~name:"v" in
  Latency.cp_record lat ~groups:[ (v, 50, 0) ] ~pages:0 ~cache_work:0 ~candidates:0
    ~device_us:0.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0;
  match Latency.last_slo_reports lat with
  | [ r ] ->
    (* every modeled op takes ~1ms+, far over a 1us threshold *)
    check_int "all ops violate" 50 r.Slo.r_violations;
    check_bool "burning" true (r.Slo.r_burn_fast > 1.0)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* --- hooks and renderings --- *)

let test_uninstalled_hooks_inert () =
  check_bool "inactive" true (not (Telemetry.lat_active ()));
  check_int "slot -1" (-1) (Telemetry.lat_vol_slot ~uid:1 ~name:"x");
  check_bool "quantiles zero" true (Telemetry.lat_quantiles_ms ~vol:(-1) = (0., 0., 0.));
  (* the uninstalled hook is one match on a global ref: 1M calls, no words *)
  let hits = ref 0 in
  let loop () =
    for _ = 1 to 1_000_000 do
      if Telemetry.lat_active () then incr hits
    done
  in
  loop ();
  let before = Gc.minor_words () in
  loop ();
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "1M uninstalled calls allocate nothing (%.0f words)" words) true
    (words = 0.0);
  check_int "never active" 0 !hits

let e2e_tel () =
  let lat = Latency.create () in
  let tel = Telemetry.create ~latency:lat () in
  let rg =
    {
      Wafl_core.Config.media = Wafl_core.Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  let config =
    Wafl_core.Config.make ~raid_groups:[ rg ]
      ~vols:[ Wafl_core.Config.default_vol ~name:"vol0" ~blocks:65536 ]
      ~seed:7 ()
  in
  Telemetry.with_installed tel (fun () ->
      let fs = Wafl_core.Fs.create config in
      let vol = (Wafl_core.Fs.vols fs).(0) in
      for cp = 1 to 4 do
        for i = 1 to 200 do
          Wafl_core.Fs.stage_write fs ~vol ~file:1 ~offset:((cp * 1000) + i)
        done;
        ignore (Wafl_core.Fs.run_cp fs)
      done);
  (tel, lat)

let test_end_to_end_fs_run () =
  let tel, lat = e2e_tel () in
  check_int "every staged op recorded" 800 (Latency.ops_recorded lat);
  check_int "every cp ticked" 4 (Latency.cps_recorded lat);
  let p50, _, p999 = Latency.quantiles_ms lat in
  check_bool "p50 positive" true (p50 > 0.0);
  check_bool "p999 >= p50" true (p999 >= p50);
  check_bool "volume registered" true
    (List.exists (fun (_, n) -> n = "vol0") (Latency.vols lat));
  (* fixed time-series schema carries the latency columns *)
  let csv = Export.timeseries_csv tel in
  check_bool "lat_p50_ms column" true (contains csv "lat_p50_ms");
  check_bool "per-vol column" true (contains csv "lat_v0_p999_ms");
  (* health pane renders the latency section *)
  let health = Report.health tel in
  check_bool "latency pane" true (contains health "latency:");
  check_bool "quantiles shown" true (contains health "p999")

let test_prom_exposition () =
  let tel, _ = e2e_tel () in
  let prom = Export.metrics_prom tel in
  check_bool "histogram type line" true
    (contains prom "# TYPE wafl_op_latency_ms histogram");
  check_bool "labelled buckets" true
    (contains prom "wafl_op_latency_ms_bucket{op=\"write\",vol=\"vol0\",le=");
  check_bool "+Inf bucket" true (contains prom "le=\"+Inf\"");
  check_bool "count series" true
    (contains prom "wafl_op_latency_ms_count{op=\"write\",vol=\"vol0\"} 800");
  check_bool "overall quantile gauge" true
    (contains prom "wafl_op_latency_quantile_ms{quantile=\"0.999\"}");
  check_bool "per-vol quantile gauge" true
    (contains prom "wafl_op_latency_vol_quantile_ms{vol=\"vol0\",quantile=\"0.5\"}");
  check_bool "newest CP row as typed gauges" true
    (contains prom "# HELP wafl_cp_lat_p99_ms newest CP, ms (modeled)\n# TYPE wafl_cp_lat_p99_ms gauge");
  check_bool "counters carry _total" true (contains prom "wafl_cp_ops_total 800");
  (* one # TYPE line per metric name, or scrapers reject the exposition *)
  let types =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; _ ] -> Some name
        | _ -> None)
      (String.split_on_char '\n' prom)
  in
  check_int "metric names unique" (List.length types)
    (List.length (List.sort_uniq String.compare types))

(* [cps] CPs of [ops] sequential writes on a fresh quick-scale HDD
   aggregate with [tel] installed; returns the per-CP reports. *)
let sequential_run ?faults ~tel ~cps ~ops () =
  let open Wafl_core in
  let rg = Wafl_experiments.Common.hdd_raid_group Wafl_experiments.Common.Quick in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [
          {
            Config.name = "seq";
            blocks = rg.Config.data_devices * rg.Config.device_blocks;
            aa_blocks = None;
            policy = Config.Best_aa;
          };
        ]
      ~aggregate_policy:Config.Best_aa
      ~run:{ Config.default_run with Config.faults }
      ~seed:7 ()
  in
  let fs = Fs.create config in
  let workload = Wafl_workload.Sequential.create fs (Fs.vol fs "seq") () in
  Telemetry.with_installed tel (fun () ->
      List.init cps (fun _ -> Wafl_workload.Sequential.step workload ops))

(* A device-latency spike injected through the fault plane must surface
   end to end: tail exemplars blamed on the device flush, and a breach of
   a 5 ms / 0.999 objective. *)
let test_spike_blamed_end_to_end () =
  let spec =
    match Wafl_fault.Fault.spec_of_string "seed=9,spike=0.9:50000" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let objective =
    match Slo.objective ~name:"writes" ~threshold_ms:5.0 ~target:0.999 with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let lat = Latency.create ~slo:(Slo.create [ objective ]) () in
  ignore
    (sequential_run ~faults:spec ~tel:(Telemetry.create ~latency:lat ()) ~cps:30 ~ops:500 ());
  let exs = Latency.exemplars lat in
  check_bool "tail exemplars captured" true (exs <> []);
  check_bool "an exemplar blames device_flush" true
    (List.exists (fun e -> e.Latency.ex_phase = Span.Device_flush) exs);
  check_bool "5ms/0.999 objective breached" true
    (List.exists (fun r -> r.Slo.r_breach) (Latency.last_slo_reports lat))

(* Sweep the closed-loop batch size: the modeled p50 must rise
   monotonically with offered work, the largest batch's throughput must
   sit within 2x of the analytic M/G/1 capacity built from the same CPs'
   cost reports, the analytic mid-load latency must sit below the
   measured saturated tail, and a load past the peak must be refused with
   an explanation. *)
let test_curve_shape () =
  let measure ops =
    let lat = Latency.create () in
    let reports = sequential_run ~tel:(Telemetry.create ~latency:lat ()) ~cps:12 ~ops () in
    let costs =
      Wafl_sim.Cost_model.combine (List.map Wafl_sim.Cost_model.of_report reports)
    in
    let p50, _, _ = Latency.quantiles_ms lat in
    (p50, costs)
  in
  let points = List.map measure [ 100; 200; 400; 800; 1600 ] in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  check_bool "p50 monotone in batch size" true (monotone (List.map fst points));
  let p50_max, costs = List.nth points 4 in
  let thr =
    1e6 *. float_of_int costs.Wafl_sim.Cost_model.ops
    /. costs.Wafl_sim.Cost_model.cp_duration_us
  in
  let curve = Wafl_sim.Load.sweep ~label:"measured service demand" costs in
  let peak = Wafl_sim.Load.peak_throughput curve in
  check_bool
    (Printf.sprintf "throughput %.0f within 2x of peak %.0f ops/s" thr peak)
    true
    (thr >= peak /. 2.0 && thr <= peak *. 2.0);
  (match Wafl_sim.Load.latency_at_load_ms curve (peak *. 0.5) with
  | Ok ms -> check_bool "mid-load latency below the saturated tail" true (ms < p50_max)
  | Error e -> Alcotest.fail e);
  check_bool "overload refused" true
    (Result.is_error (Wafl_sim.Load.latency_at_load_ms curve (peak *. 2.0)))

(* The per-op path is allocation-free: a warm 10,000-op CP allocates no
   more minor words than a 10-op one.  And a warm CP plus a per-volume
   quantile read allocates less than one histogram (1,856 buckets):
   reads return the stored histogram, nothing is merged. *)
let test_cp_record_alloc () =
  let lat = Latency.create () in
  let v = Latency.vol_slot lat ~uid:1 ~name:"z" in
  let cp ops =
    Latency.cp_record lat ~groups:[ (v, ops, ops / 2) ] ~pages:3 ~cache_work:5
      ~candidates:7 ~device_us:100.0 ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0
  in
  for _ = 1 to 3 do
    cp 10_000
  done;
  let minor_words ops =
    let before = Gc.minor_words () in
    cp ops;
    Gc.minor_words () -. before
  in
  let small = minor_words 10 in
  let large = minor_words 10_000 in
  check_bool
    (Printf.sprintf "10k-op CP %.0f words <= 10-op CP %.0f words" large small)
    true (large <= small);
  let before = Gc.allocated_bytes () in
  cp 100;
  ignore (Latency.quantiles_ms ~vol:v lat);
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_bool
    (Printf.sprintf "warm CP + read %.0f words < one histogram" words)
    true (words < 1856.0)

(* An empty run creates no histogram: a new volume whose CP brings only
   fresh writes gets its write cell and its volume histogram, and no
   empty overwrite cell; the reverse holds for overwrites.  Such a CP
   allocates 3,721 words, about two histograms; an empty third cell
   would add 1,858. *)
let test_cp_record_empty_run_no_cell () =
  let lat = Latency.create () in
  let record groups =
    Latency.cp_record lat ~groups ~pages:3 ~cache_work:5 ~candidates:7 ~device_us:100.0
      ~spike_us:0.0 ~pick_ns:0 ~harvest_ns:0
  in
  record [ (Latency.vol_slot lat ~uid:1 ~name:"warm", 10, 10) ];
  List.iter
    (fun (uid, fresh, over) ->
      let v = Latency.vol_slot lat ~uid ~name:(string_of_int uid) in
      let before = Gc.allocated_bytes () in
      record [ (v, fresh, over) ];
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
      check_bool
        (Printf.sprintf "%d fresh + %d overwrites on a new volume: %.0f words < 2.5 histograms"
           fresh over words)
        true (words < 2.5 *. 1856.0))
    [ (2, 10, 0); (3, 0, 10) ]

let () =
  Alcotest.run "wafl_latency"
    [
      ( "hdrhist",
        [
          Alcotest.test_case "exact below 64" `Quick test_hdrhist_exact_small;
          Alcotest.test_case "relative error bound" `Quick test_hdrhist_relative_error_bound;
          Alcotest.test_case "quantile vs sorted" `Quick test_hdrhist_quantile_vs_sorted;
        ] );
      ( "latency",
        [
          Alcotest.test_case "cp_record bounds" `Quick test_cp_record_latency_bounds;
          Alcotest.test_case "per-vol keying" `Quick test_cp_record_per_vol_keying;
          Alcotest.test_case "exemplar device blame" `Quick test_exemplar_blames_device_flush;
          Alcotest.test_case "exemplar activemap blame" `Quick test_exemplar_blames_activemap;
          Alcotest.test_case "record path zero alloc" `Quick test_cp_record_alloc;
          Alcotest.test_case "empty run creates no cell" `Quick test_cp_record_empty_run_no_cell;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse errors" `Quick test_slo_parse_errors;
          Alcotest.test_case "reprint exact" `Quick test_slo_reprint_exact;
          QCheck_alcotest.to_alcotest prop_slo_roundtrip;
          Alcotest.test_case "duplicate names rejected" `Quick test_slo_duplicate_names;
          Alcotest.test_case "burn and breach" `Quick test_slo_burn_and_breach;
          Alcotest.test_case "exact burn at decimal targets" `Quick test_slo_burn_exact;
          Alcotest.test_case "violations from cp_record" `Quick
            test_slo_violations_from_cp_record;
        ] );
      ( "integration",
        [
          Alcotest.test_case "uninstalled hooks inert" `Quick test_uninstalled_hooks_inert;
          Alcotest.test_case "end-to-end fs run" `Quick test_end_to_end_fs_run;
          Alcotest.test_case "prom exposition" `Quick test_prom_exposition;
          Alcotest.test_case "spike blamed end to end" `Quick test_spike_blamed_end_to_end;
          Alcotest.test_case "curve shape" `Quick test_curve_shape;
        ] );
    ]
