(* Tests for Wafl_sim: cost_model and load sweeps. *)

open Wafl_core
open Wafl_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let astring_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let report ~ops ~pages ~device_us ~cache_work =
  {
    Cp.empty_report with
    ops;
    blocks_allocated = ops;
    agg_metafile_pages = pages;
    device_time_us = device_us;
    cache_work;
  }

let base = Wafl_telemetry.Latency.model.cpu_base_us_per_op

let test_cost_model_basics () =
  let costs = Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:0.0 ~cache_work:0) in
  Alcotest.(check (float 1e-6)) "pure cpu" base costs.Cost_model.cpu_us_per_op;
  Alcotest.(check (float 1e-6)) "service = cpu" base costs.Cost_model.service_time_us;
  check_int "ops" 100 costs.Cost_model.ops

let test_cost_model_pages_cost () =
  let with_pages = Cost_model.of_report (report ~ops:100 ~pages:50 ~device_us:0.0 ~cache_work:0) in
  let without = Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:0.0 ~cache_work:0) in
  check_bool "metafile pages cost cpu" true
    (with_pages.Cost_model.cpu_us_per_op > without.Cost_model.cpu_us_per_op);
  check_bool "and service time" true
    (with_pages.Cost_model.service_time_us > without.Cost_model.service_time_us)

let test_cost_model_device_time () =
  let costs =
    Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:10_000.0 ~cache_work:0)
  in
  Alcotest.(check (float 1e-6)) "device amortized" (base +. 100.0)
    costs.Cost_model.service_time_us

let test_cost_model_cache_share_tiny () =
  (* a realistic CP: a handful of cache work units among thousands of ops *)
  let costs = Cost_model.of_report (report ~ops:4000 ~pages:40 ~device_us:5e4 ~cache_work:100) in
  let share = costs.Cost_model.cache_us_per_op /. costs.Cost_model.cpu_us_per_op in
  check_bool "cache share well under 0.1%" true (share < 0.001)

let test_cost_model_combine () =
  let a = Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:0.0 ~cache_work:0) in
  let b = Cost_model.of_report (report ~ops:300 ~pages:0 ~device_us:0.0 ~cache_work:0) in
  let c = Cost_model.combine [ a; b ] in
  check_int "ops summed" 400 c.Cost_model.ops;
  Alcotest.(check (float 1e-6)) "weighted mean" base c.Cost_model.cpu_us_per_op

let test_cost_model_rejects_empty () =
  Alcotest.check_raises "empty CP" (Invalid_argument "Cost_model.of_report: empty CP")
    (fun () -> ignore (Cost_model.of_report (report ~ops:0 ~pages:0 ~device_us:0.0 ~cache_work:0)))

let test_sweep_shape () =
  let costs = Cost_model.of_report (report ~ops:100 ~pages:10 ~device_us:1e4 ~cache_work:5) in
  let curve = Load.sweep ~label:"test" costs in
  check_bool "has points" true (List.length curve.Load.points > 5);
  (* latency non-decreasing with offered load *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Load.latency_ms <= b.Load.latency_ms +. 1e-9 && monotone rest
    | _ -> true
  in
  check_bool "latency monotone in offered load" true (monotone curve.Load.points);
  (* throughput capped at the service capacity *)
  let cap = 1e6 /. costs.Cost_model.service_time_us in
  check_bool "peak under capacity" true (Load.peak_throughput curve <= cap)

let test_sweep_comparison () =
  (* slower service -> lower peak, higher latency at matched load *)
  let fast = Load.sweep ~label:"fast"
      (Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:0.0 ~cache_work:0))
  in
  let slow = Load.sweep ~label:"slow"
      (Cost_model.of_report (report ~ops:100 ~pages:100 ~device_us:5e4 ~cache_work:0))
  in
  check_bool "fast peaks higher" true (Load.peak_throughput fast > Load.peak_throughput slow);
  let load = Load.peak_throughput slow *. 0.5 in
  (match (Load.latency_at_load_ms fast load, Load.latency_at_load_ms slow load) with
  | Ok lf, Ok ls -> check_bool "fast lower latency" true (lf < ls)
  | Error e, _ | _, Error e -> Alcotest.fail ("interpolation failed: " ^ e));
  (* out-of-range loads explain themselves instead of silently dropping *)
  (match Load.latency_at_load_ms slow (Load.peak_throughput slow *. 1e3) with
  | Ok _ -> Alcotest.fail "overload should be an error"
  | Error msg ->
    check_bool "overload names peak throughput" true
      (astring_contains msg "exceeds peak throughput"));
  match Load.latency_at_load_ms slow 1e-9 with
  | Ok _ -> Alcotest.fail "underload should be an error"
  | Error msg ->
    check_bool "underload names lowest point" true
      (astring_contains msg "below the sweep's lowest point")

let test_measure_service_time_runs_cps () =
  let count = ref 0 in
  let step n =
    incr count;
    report ~ops:n ~pages:1 ~device_us:100.0 ~cache_work:1
  in
  let costs = Load.measure_service_time ~cps:5 ~ops_per_cp:50 ~step () in
  check_int "five cps" 5 !count;
  check_int "ops total" 250 costs.Cost_model.ops

let test_to_series () =
  let costs = Cost_model.of_report (report ~ops:100 ~pages:0 ~device_us:0.0 ~cache_work:0) in
  let curve = Load.sweep ~label:"s" costs in
  let series = Load.to_series curve in
  check_bool "named" true (series.Wafl_util.Series.name = "s");
  check_int "points preserved" (List.length curve.Load.points)
    (List.length series.Wafl_util.Series.points)

let () =
  Alcotest.run "wafl_sim"
    [
      ( "cost_model",
        [
          Alcotest.test_case "basics" `Quick test_cost_model_basics;
          Alcotest.test_case "pages cost" `Quick test_cost_model_pages_cost;
          Alcotest.test_case "device time" `Quick test_cost_model_device_time;
          Alcotest.test_case "cache share tiny" `Quick test_cost_model_cache_share_tiny;
          Alcotest.test_case "combine" `Quick test_cost_model_combine;
          Alcotest.test_case "rejects empty" `Quick test_cost_model_rejects_empty;
        ] );
      ( "load",
        [
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
          Alcotest.test_case "comparison" `Quick test_sweep_comparison;
          Alcotest.test_case "measure runs cps" `Quick test_measure_service_time_runs_cps;
          Alcotest.test_case "to_series" `Quick test_to_series;
        ] );
    ]
