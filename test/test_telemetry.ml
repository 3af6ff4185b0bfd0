(* Tests for Wafl_telemetry: registry, tracer, exporters, and the
   zero-allocation guarantee on the disabled pick path. *)

open Wafl_telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Registry --- *)

let test_counter () =
  let r = Registry.create () in
  let c = Registry.counter r "cp.count" in
  check_int "fresh" 0 (Registry.count c);
  Registry.incr c;
  Registry.add c 41;
  check_int "incr+add" 42 (Registry.count c);
  (* get-or-register returns the same underlying counter *)
  Registry.incr (Registry.counter r "cp.count");
  check_int "shared handle" 43 (Registry.count c);
  Alcotest.check_raises "negative add" (Invalid_argument "Registry.add: negative increment")
    (fun () -> Registry.add c (-1))

let test_gauge () =
  let r = Registry.create () in
  let g = Registry.gauge r "err" in
  Registry.set g 0.5;
  Alcotest.(check (float 1e-9)) "set" 0.5 (Registry.value g);
  Registry.set_max g 0.25;
  Alcotest.(check (float 1e-9)) "set_max keeps larger" 0.5 (Registry.value g);
  Registry.set_max g 0.75;
  Alcotest.(check (float 1e-9)) "set_max takes larger" 0.75 (Registry.value g)

let test_kind_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  check_bool "gauge on counter name raises" true
    (try
       ignore (Registry.gauge r "x");
       false
     with Invalid_argument _ -> true)

let test_registry_enumeration () =
  let r = Registry.create () in
  ignore (Registry.counter r "a");
  ignore (Registry.gauge r "b");
  ignore (Registry.counter r "c");
  let names =
    List.rev (Registry.fold r ~init:[] ~f:(fun acc m -> Registry.name m :: acc))
  in
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ] names;
  check_bool "find hit" true (Registry.find r "b" <> None);
  check_bool "find miss" true (Registry.find r "zzz" = None);
  let c = Registry.counter r "a" in
  Registry.add c 5;
  Registry.clear r;
  check_int "clear zeroes, handle survives" 0 (Registry.count c)

(* --- Tracer --- *)

let test_tracer_ring () =
  let t = Tracer.create ~capacity:4 ~enabled:true () in
  Tracer.cp_begin t;
  for aa = 0 to 5 do
    Tracer.aa_pick t ~space:0 ~aa ~score:aa
  done;
  check_int "emitted counts overwritten" 7 (Tracer.emitted t);
  check_int "retained bounded" 4 (Tracer.length t);
  (* oldest first, and the cp_begin plus the first two picks fell off *)
  let aas =
    List.filter_map
      (function Tracer.Aa_pick { aa; _ } -> Some aa | _ -> None)
      (Tracer.to_list t)
  in
  Alcotest.(check (list int)) "oldest overwritten" [ 2; 3; 4; 5 ] aas

let test_tracer_disabled_still_stamps () =
  let t = Tracer.create ~capacity:8 () in
  check_bool "default disabled" false (Tracer.enabled t);
  Tracer.cp_begin t;
  Tracer.cp_begin t;
  Tracer.aa_pick t ~space:0 ~aa:1 ~score:1;
  check_int "nothing retained" 0 (Tracer.length t);
  Tracer.set_enabled t true;
  Tracer.aa_pick t ~space:0 ~aa:1 ~score:1;
  match Tracer.to_list t with
  | [ Tracer.Aa_pick { cp; _ } ] -> check_int "cp stamp advanced while disabled" 2 cp
  | _ -> Alcotest.fail "expected one pick event"

(* --- installation and helpers --- *)

let test_install_helpers () =
  Telemetry.uninstall ();
  (* all helpers are no-ops when nothing is installed *)
  Telemetry.incr "c";
  let ran = ref false in
  Telemetry.sample ~columns:[] (fun _ ->
      ran := true;
      [||]);
  check_bool "row function skipped when uninstalled" false !ran;
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      check_bool "active" true (Telemetry.is_active ());
      Telemetry.incr "c";
      Telemetry.add "c" 2;
      Telemetry.set_gauge "g" 1.5;
      Telemetry.trace_cp_begin ();
      Telemetry.trace_aa_pick ~space:3 ~aa:7 ~score:100);
  check_bool "uninstalled after" false (Telemetry.is_active ());
  (match Registry.find (Telemetry.registry tel) "c" with
  | Some (Registry.Counter c) -> check_int "counter through helpers" 3 (Registry.count c)
  | _ -> Alcotest.fail "counter not registered");
  check_int "one event traced" 1
    (List.length
       (List.filter
          (function Tracer.Aa_pick _ -> true | _ -> false)
          (Tracer.to_list (Telemetry.tracer tel))))

(* --- exporters --- *)

let sample_telemetry () =
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      Telemetry.add "cp.ops" 12;
      Telemetry.set_gauge "cache.hbps.score_error_max" 0.03125;
      Telemetry.trace_cp_begin ();
      Telemetry.trace_aa_pick ~space:0 ~aa:5 ~score:900);
  tel

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let json_get path v =
  let open Wafl_util.Json in
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some v) path

let parse_json what s =
  match Wafl_util.Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.fail (what ^ " does not parse: " ^ msg)

let json_num path v =
  match json_get path v with
  | Some (Wafl_util.Json.Num x) -> x
  | _ -> Alcotest.fail ("missing numeric leaf " ^ String.concat "." path)

let test_metrics_json () =
  let v = parse_json "metrics json" (Export.metrics_json (sample_telemetry ())) in
  let exact = Alcotest.(check (float 0.0)) in
  exact "cp.ops" 12.0 (json_num [ "counters"; "cp.ops" ] v);
  exact "score_error_max" 0.03125 (json_num [ "gauges"; "cache.hbps.score_error_max" ] v);
  exact "emitted" 2.0 (json_num [ "trace"; "emitted" ] v)

(* A gauge reads back bit-exact through every metrics rendering. *)
let test_exact_gauge () =
  let g = 0.1234567891 in
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () -> Telemetry.set_gauge "g" g);
  let exact = Alcotest.(check (float 0.0)) in
  exact "json" g (json_num [ "gauges"; "g" ] (parse_json "metrics json" (Export.metrics_json tel)));
  let csv_value =
    List.find_map
      (fun l -> match String.split_on_char ',' l with [ "gauge"; "g"; v ] -> Some v | _ -> None)
      (String.split_on_char '\n' (Export.metrics_csv tel))
  in
  exact "csv" g (float_of_string (Option.get csv_value))

(* Names with a quote, a backslash, a newline and a control byte come
   back unchanged from the JSON exports, and trace burn rates exactly. *)
let test_escaped_names () =
  let name = "a\"b\\c\nd\001e" in
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () -> Telemetry.add name 7);
  Tracer.slo_violation (Telemetry.tracer tel) ~slo:name ~burn_fast:1.2345678 ~burn_slow:0.1
    ~violations:3;
  let m = parse_json "metrics json" (Export.metrics_json tel) in
  Alcotest.(check (float 0.0)) "counter under its name" 7.0 (json_num [ "counters"; name ] m);
  match parse_json "trace json" (Export.trace_json tel) with
  | Wafl_util.Json.List [ ev ] ->
    check_bool "slo name" true (json_get [ "slo" ] ev = Some (Wafl_util.Json.Str name));
    Alcotest.(check (float 0.0)) "burn_fast" 1.2345678 (json_num [ "burn_fast" ] ev);
    Alcotest.(check (float 0.0)) "burn_slow" 0.1 (json_num [ "burn_slow" ] ev);
    Alcotest.(check (float 0.0)) "violations" 3.0 (json_num [ "violations" ] ev)
  | _ -> Alcotest.fail "trace json is not one event"

let test_metrics_csv () =
  let csv = Export.metrics_csv (sample_telemetry ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_string "header" "kind,name,value" (List.hd lines);
  check_bool "counter row" true (List.mem "counter,cp.ops,12" lines);
  check_bool "gauge row" true (List.mem "gauge,cache.hbps.score_error_max,0.03125" lines)

let test_trace_exports () =
  let tel = sample_telemetry () in
  let csv = Export.trace_csv tel in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 events" 3 (List.length lines);
  check_string "header"
    "event,cp,space,aa,score,listed,tetrises,full_stripes,partial_stripes,aas,relocated,reclaimed,transients,torn,failed,spikes,retries,ok,slo,burn_fast,burn_slow,violations"
    (List.hd lines);
  check_bool "pick row" true (List.mem "aa_pick,1,0,5,900,,,,,,,,,,,,,,,,," lines);
  let json = Export.trace_json tel in
  check_bool "json array" true (json.[0] = '[')

(* --- the zero-allocation guarantee (§4.1.2 analogue) --- *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_tracing_allocates_nothing () =
  Telemetry.uninstall ();
  let emit_all () =
    for i = 1 to 10_000 do
      Telemetry.trace_aa_pick ~space:0 ~aa:i ~score:i;
      Telemetry.trace_cache_replenish ~space:0 ~listed:i;
      Telemetry.trace_tetris_write ~space:0 ~tetrises:1 ~full_stripes:1 ~partial_stripes:0;
      Telemetry.trace_io_retry ~space:0 ~retries:1 ~ok:1
    done
  in
  emit_all () (* warm up: fault in any one-time allocation *);
  let uninstalled = minor_words_during emit_all in
  check_bool
    (Printf.sprintf "uninstalled emitters allocate nothing (%.0f words)" uninstalled)
    true (uninstalled = 0.0);
  (* installed but tracing disabled: same guarantee on the pick path *)
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      emit_all ();
      let disabled = minor_words_during emit_all in
      check_bool
        (Printf.sprintf "disabled tracing allocates nothing (%.0f words)" disabled)
        true (disabled = 0.0));
  (* sanity: with tracing on the same loop does allocate (events are boxed) *)
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      let enabled = minor_words_during emit_all in
      check_bool "enabled tracing allocates" true (enabled > 0.0))

let test_uninstalled_spans_allocate_nothing () =
  Telemetry.uninstall ();
  let loop () =
    for _ = 1 to 10_000 do
      Telemetry.span_enter Span.Pick;
      Telemetry.span_exit Span.Pick;
      Telemetry.span_enter Span.Cp;
      Telemetry.span_exit Span.Cp;
      ignore (Telemetry.now_ns ())
    done
  in
  loop () (* warm up *);
  let words = minor_words_during loop in
  check_bool
    (Printf.sprintf "uninstalled span enter/exit allocates nothing (%.0f words)" words)
    true (words = 0.0)

(* --- spans --- *)

let test_span_semantics () =
  let now = ref 0 in
  let s = Span.create ~clock:(fun () -> !now) () in
  check_int "fresh count" 0 (Span.count s Span.Cp);
  Span.enter s Span.Cp;
  check_int "open while running" 1 (Span.open_now s Span.Cp);
  check_int "no completion yet" 0 (Span.count s Span.Cp);
  now := 100;
  Span.enter s Span.Pick;
  now := 140;
  Span.exit s Span.Pick;
  now := 250;
  Span.exit s Span.Cp;
  check_int "pick total" 40 (Span.total_ns s Span.Pick);
  check_int "cp total" 250 (Span.total_ns s Span.Cp);
  check_int "cp count" 1 (Span.count s Span.Cp);
  check_int "closed" 0 (Span.open_now s Span.Cp);
  Span.exit s Span.Harvest;
  check_int "stray exit ignored" 0 (Span.count s Span.Harvest);
  check_int "stray exit adds no time" 0 (Span.total_ns s Span.Harvest);
  check_bool "cp is a root" true (Span.parent Span.Cp = None);
  check_bool "pick nests under cp" true (Span.parent Span.Pick = Some Span.Cp);
  check_bool "bit_clear nests under the commit" true
    (Span.parent Span.Bit_clear = Some Span.Activemap_commit);
  check_int "root depth" 0 (Span.depth Span.Cp);
  check_int "bit_clear depth" 2 (Span.depth Span.Bit_clear);
  check_bool "names are stable" true (Span.name Span.Device_flush = "cp.device_flush");
  Span.clear s;
  check_int "clear drops counts" 0 (Span.count s Span.Cp);
  check_int "clear drops totals" 0 (Span.total_ns s Span.Cp)

(* --- time series --- *)

let col ?(unit = "blocks") ?(kind = Timeseries.Count) name = { Timeseries.name; unit; kind }

let test_timeseries_ring () =
  check_bool "non-positive capacity rejected" true
    (try
       ignore (Timeseries.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true);
  let ts = Timeseries.create ~capacity:3 () in
  check_bool "append before schema rejected" true
    (try
       Timeseries.append ts [| 1.0 |];
       false
     with Invalid_argument _ -> true);
  Timeseries.set_columns ts [ col "a"; col "b" ];
  Timeseries.set_columns ts [ col "a"; col "b" ] (* same schema is idempotent *);
  check_bool "schema mismatch rejected" true
    (try
       Timeseries.set_columns ts [ col "a"; col "c" ];
       false
     with Invalid_argument _ -> true);
  check_bool "width mismatch rejected" true
    (try
       Timeseries.append ts [| 1.0 |];
       false
     with Invalid_argument _ -> true);
  for i = 1 to 4 do
    Timeseries.append ts [| float_of_int i; float_of_int (10 * i) |]
  done;
  check_int "retained bounded by capacity" 3 (Timeseries.length ts);
  check_int "lifetime count keeps growing" 4 (Timeseries.appended ts);
  Alcotest.(check (list (list (float 1e-9))))
    "oldest row overwritten"
    [ [ 2.0; 20.0 ]; [ 3.0; 30.0 ]; [ 4.0; 40.0 ] ]
    (List.map Array.to_list (Timeseries.rows ts));
  (match Timeseries.last ts with
  | Some row -> Alcotest.(check (float 1e-9)) "last row" 4.0 row.(0)
  | None -> Alcotest.fail "expected a last row");
  check_bool "column lookup" true (Timeseries.column_index ts "b" = Some 1);
  check_bool "column miss" true (Timeseries.column_index ts "z" = None);
  (* rows are copies: mutating a returned row cannot corrupt the ring *)
  (Timeseries.get ts 0).(0) <- 99.0;
  Alcotest.(check (float 1e-9)) "get returns copies" 2.0 (Timeseries.get ts 0).(0);
  Timeseries.clear ts;
  check_int "clear drops rows" 0 (Timeseries.length ts);
  check_int "clear drops lifetime count" 0 (Timeseries.appended ts);
  Alcotest.(check (list string)) "clear keeps schema" [ "a"; "b" ] (Timeseries.columns ts)

(* --- span + time-series export round-trips --- *)

let span_telemetry () =
  let now = ref 0 in
  let tel = Telemetry.create ~clock:(fun () -> !now) () in
  Telemetry.with_installed tel (fun () ->
      Telemetry.span_enter Span.Cp;
      now := 10;
      Telemetry.span_enter Span.Pick;
      now := 25;
      Telemetry.span_exit Span.Pick;
      now := 100;
      Telemetry.span_exit Span.Cp;
      Telemetry.span_enter Span.Iron);
  tel

let test_span_json_roundtrip () =
  let tel = span_telemetry () in
  let v = parse_json "metrics json" (Export.metrics_json tel) in
  let num path = json_num path v in
  Alcotest.(check (float 1e-9)) "cp count" 1.0 (num [ "spans"; "cp"; "count" ]);
  Alcotest.(check (float 1e-9)) "cp total" 100.0 (num [ "spans"; "cp"; "total_ns" ]);
  Alcotest.(check (float 1e-9)) "pick total" 15.0 (num [ "spans"; "cp.pick"; "total_ns" ]);
  Alcotest.(check (float 1e-9)) "iron still open" 1.0 (num [ "spans"; "iron"; "open" ]);
  (match json_get [ "spans"; "cp.pick"; "parent" ] v with
  | Some (Wafl_util.Json.Str "cp") -> ()
  | _ -> Alcotest.fail "pick parent should be \"cp\"");
  (match json_get [ "spans"; "cp"; "parent" ] v with
  | Some Wafl_util.Json.Null -> ()
  | _ -> Alcotest.fail "root parent should be null");
  check_bool "unentered kinds omitted" true (json_get [ "spans"; "cleaner" ] v = None);
  let csv = Export.metrics_csv tel in
  check_bool "span rows in csv" true (contains ~needle:"span,cp.pick.total_ns,15" csv)

let sampled_telemetry () =
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      let columns = [ col "x"; col ~unit:"ns" ~kind:Timeseries.Measured "y" ] in
      Telemetry.sample ~columns (fun _ -> [| 1.5; 2.0 |]);
      Telemetry.sample ~columns (fun _ -> [| 3.0; -0.25 |]));
  tel

let test_timeseries_json_roundtrip () =
  let tel = sampled_telemetry () in
  let v = parse_json "timeseries json" (Export.timeseries_json tel) in
  let strings key =
    match json_get [ key ] v with
    | Some (Wafl_util.Json.List l) ->
      List.map (function Wafl_util.Json.Str s -> s | _ -> Alcotest.fail "non-string") l
    | _ -> Alcotest.fail (key ^ " missing")
  in
  Alcotest.(check (list string)) "columns" [ "x"; "y" ] (strings "columns");
  Alcotest.(check (list string)) "units" [ "blocks"; "ns" ] (strings "units");
  Alcotest.(check (list string)) "kinds" [ "count"; "measured" ] (strings "kinds");
  (match json_get [ "appended" ] v with
  | Some (Wafl_util.Json.Num 2.0) -> ()
  | _ -> Alcotest.fail "appended mismatch");
  let rows =
    match json_get [ "rows" ] v with
    | Some (Wafl_util.Json.List rows) ->
      List.map
        (function
          | Wafl_util.Json.List cells ->
            List.map
              (function Wafl_util.Json.Num x -> x | _ -> Alcotest.fail "non-numeric cell")
              cells
          | _ -> Alcotest.fail "non-list row")
        rows
    | _ -> Alcotest.fail "rows missing"
  in
  Alcotest.(check (list (list (float 1e-9))))
    "rows round-trip exactly"
    (List.map Array.to_list (Timeseries.rows (Telemetry.series tel)))
    rows

let test_timeseries_csv_roundtrip () =
  let tel = sampled_telemetry () in
  let csv = Export.timeseries_csv tel in
  match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
    check_string "csv header is the schema" "x,y" header;
    let parsed =
      List.map
        (fun line -> List.map float_of_string (String.split_on_char ',' line))
        rows
    in
    Alcotest.(check (list (list (float 1e-9))))
      "csv rows round-trip exactly"
      (List.map Array.to_list (Timeseries.rows (Telemetry.series tel)))
      parsed
  | [] -> Alcotest.fail "empty csv"

(* --- the CP column table --- *)

module Cp = Wafl_core.Cp
module Config = Wafl_core.Config

let cp_column_names = List.map (fun c -> c.Timeseries.name) Cp.columns

(* The series as it stood before the table gained its appended columns;
   exporters and dashboards index these by name and position. *)
let original_columns =
  [
    "cp"; "ops"; "blocks_allocated"; "pvbns_freed"; "picks"; "replenishes";
    "search_ns_per_block"; "cp_wall_ns"; "hbps_score_error_max"; "aa_score_d1";
    "aa_score_d2"; "aa_score_d3"; "aa_score_d4"; "aa_score_d5"; "aa_score_d6";
    "aa_score_d7"; "aa_score_d8"; "aa_score_d9"; "free_blocks"; "free_frac";
    "free_runs"; "largest_free_run"; "frag"; "ring_high_water"; "device_us";
    "fault_transients"; "fault_torn"; "fault_failed"; "fault_retries";
    "scrub_pages"; "scrub_bad"; "ssd_wa"; "ssd_reloc_s0"; "ssd_reloc_s1";
    "ssd_reloc_s2"; "ssd_reloc_s3"; "ssd_max_wear"; "lat_p50_ms"; "lat_p99_ms";
    "lat_p999_ms"; "lat_v0_p50_ms"; "lat_v0_p99_ms"; "lat_v0_p999_ms";
    "lat_v1_p50_ms"; "lat_v1_p99_ms"; "lat_v1_p999_ms"; "lat_v2_p50_ms";
    "lat_v2_p99_ms"; "lat_v2_p999_ms"; "lat_v3_p50_ms"; "lat_v3_p99_ms";
    "lat_v3_p999_ms";
  ]

let test_cp_schema () =
  check_int "names unique" (List.length cp_column_names)
    (List.length (List.sort_uniq String.compare cp_column_names));
  List.iter
    (fun (c : Timeseries.column) -> check_bool (c.name ^ " has a unit") true (c.unit <> ""))
    Cp.columns;
  Alcotest.(check (list string))
    "original columns keep names and order" original_columns
    (List.filteri (fun i _ -> i < List.length original_columns) cp_column_names);
  Alcotest.(check (list string))
    "only the wall-clock columns are measured"
    [ "search_ns_per_block"; "cp_wall_ns" ]
    (List.filter_map
       (fun (c : Timeseries.column) -> if c.kind = Timeseries.Measured then Some c.name else None)
       Cp.columns)

(* The [waflsim top --ssd] workload scaled down: an aged random-overwrite
   run at a fixed seed under the default fault profile, telemetry and
   latency accounting installed.  Forces to the instance and the reports
   of the measured (post-aging) CPs. *)
let ssd_run =
  lazy
    (let rg =
       { Config.media = Config.Ssd (Wafl_experiments.Common.ssd_profile Quick);
         data_devices = 4; parity_devices = 1; device_blocks = 16384; aa_stripes = None }
     in
     let config =
       Config.make ~raid_groups:[ rg ]
         ~vols:
           [ { Config.name = "lun"; blocks = 4 * rg.Config.device_blocks * 9 / 8;
               aa_blocks = Some 1024; policy = Config.Best_aa } ]
         ~aggregate_policy:Config.Best_aa
         ~run:{ Config.default_run with Config.faults = Some Wafl_fault.Fault.default_spec }
         ~seed:42 ()
     in
     let lat = Latency.create () in
     let tel = Telemetry.create ~latency:lat () in
     let run () =
       let fs = Wafl_core.Fs.create config in
       let vol = Wafl_core.Fs.vol fs "lun" in
       let rng = Wafl_util.Rng.split (Wafl_core.Fs.rng fs) in
       let spec =
         { Wafl_workload.Aging.fill_fraction = 0.55; fragmentation_cps = 6; writes_per_cp = 500;
           file = 1 }
       in
       let working_set = Wafl_workload.Aging.age fs vol ~spec ~rng () in
       let w =
         Wafl_workload.Random_overwrite.create fs vol ~working_set
           ~rng:(Wafl_util.Rng.split rng) ()
       in
       List.init 10 (fun _ -> Wafl_workload.Random_overwrite.step w 400)
     in
     let reports = Telemetry.with_installed tel run in
     (tel, reports))

let test_cp_series_json () =
  let tel, _ = Lazy.force ssd_run in
  let v = parse_json "timeseries json" (Export.timeseries_json tel) in
  let strings key =
    match json_get [ key ] v with
    | Some (Wafl_util.Json.List l) ->
      List.map (function Wafl_util.Json.Str s -> s | _ -> Alcotest.fail "non-string") l
    | _ -> Alcotest.fail (key ^ " missing")
  in
  Alcotest.(check (list string)) "columns" cp_column_names (strings "columns");
  Alcotest.(check (list string))
    "units line up" (List.map (fun c -> c.Timeseries.unit) Cp.columns) (strings "units");
  Alcotest.(check (list string))
    "kinds line up"
    (List.map (fun c -> Timeseries.kind_name c.Timeseries.kind) Cp.columns)
    (strings "kinds")

(* Every report-derived cell of each measured CP's row equals its field. *)
let test_cp_columns_match_report () =
  let tel, reports = Lazy.force ssd_run in
  let series = Telemetry.series tel in
  let rows = Timeseries.rows series in
  let rows = List.filteri (fun i _ -> i >= List.length rows - List.length reports) rows in
  let fault sel (r : Cp.report) =
    match r.Cp.fault_totals with None -> 0.0 | Some fs -> sel fs
  in
  let fields =
    let i f (r : Cp.report) = float_of_int (f r) in
    [
      ("ops", i (fun r -> r.Cp.ops));
      ("blocks_allocated", i (fun r -> r.Cp.blocks_allocated));
      ("pvbns_freed", i (fun r -> r.Cp.pvbns_freed));
      ("picks", i (fun r -> r.Cp.picks));
      ("replenishes", i (fun r -> r.Cp.replenishes));
      ("hbps_score_error_max", fun r -> r.Cp.hbps_score_error_max);
      ("device_us", fun r -> r.Cp.device_time_us);
      ("vvbns_freed", i (fun r -> r.Cp.vvbns_freed));
      ("agg_metafile_pages", i (fun r -> r.Cp.agg_metafile_pages));
      ("vol_metafile_pages", i (fun r -> r.Cp.vol_metafile_pages));
      ("cache_work", i (fun r -> r.Cp.cache_work));
      ("alloc_candidates", i (fun r -> r.Cp.alloc_candidates));
      ("fault_retries_ok", fault (fun fs -> float_of_int fs.Wafl_fault.Fault.retries_ok));
      ("fault_penalty_us", fault (fun fs -> fs.Wafl_fault.Fault.penalty_us));
    ]
  in
  check_bool "faults fired" true
    (List.exists (fun r -> fault (fun fs -> fs.Wafl_fault.Fault.penalty_us) r > 0.0) reports);
  List.iteri
    (fun cp (r, row) ->
      List.iter
        (fun (name, field) ->
          match Timeseries.column_index series name with
          | None -> Alcotest.failf "no column %s" name
          | Some j -> Alcotest.(check (float 0.0)) (Printf.sprintf "cp %d %s" cp name) (field r) row.(j))
        fields)
    (List.combine reports rows)

(* On one thread a CP's disjoint phases nest inside its [Cp] span one
   after another, so under a clock that only moves forward their totals
   sum to at most the CP's, and the bit clears to at most the activemap
   commit around them: the unattributed remainder is never negative.  A
   counting clock makes every total exact and the check deterministic. *)
let test_cp_phase_accounting () =
  let ticks = ref 0 in
  let tel = Telemetry.create ~clock:(fun () -> incr ticks; !ticks) () in
  let rg =
    { Config.media = Config.Hdd Wafl_device.Profile.default_hdd; data_devices = 4;
      parity_devices = 1; device_blocks = 8192; aa_stripes = Some 512 }
  in
  let config =
    Config.make ~raid_groups:[ rg; rg ]
      ~vols:[ { Config.name = "v"; blocks = 16384; aa_blocks = None; policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ~seed:3 ()
  in
  let fs = Wafl_core.Fs.create config in
  let vol = Wafl_core.Fs.vol fs "v" in
  let cps = 12 in
  Telemetry.with_installed tel (fun () ->
      for cp = 0 to cps - 1 do
        (* overwrites from the second CP on, so frees reach the commit *)
        for i = 0 to 399 do
          Wafl_core.Fs.stage_write fs ~vol ~file:1 ~offset:(((cp * 97) + (i * 13)) mod 2000)
        done;
        ignore (Wafl_core.Fs.run_cp fs)
      done);
  let spans = Telemetry.spans tel in
  let total k = Span.total_ns spans k in
  check_int "every CP closed its span" cps (Span.count spans Span.Cp);
  let phases = Span.[ Place; Activemap_commit; Device_flush; Refile; Publish ] in
  List.iter
    (fun k -> check_bool (Span.name k ^ " was timed") true (total k > 0))
    (Span.Bit_clear :: phases);
  let attributed = List.fold_left (fun acc k -> acc + total k) 0 phases in
  check_bool
    (Printf.sprintf "disjoint phases %d <= cp %d" attributed (total Span.Cp))
    true
    (attributed <= total Span.Cp);
  check_bool
    (Printf.sprintf "bit_clear %d <= activemap_commit %d" (total Span.Bit_clear)
       (total Span.Activemap_commit))
    true
    (total Span.Bit_clear <= total Span.Activemap_commit)

let () =
  Alcotest.run "wafl_telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "enumeration" `Quick test_registry_enumeration;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring overwrite" `Quick test_tracer_ring;
          Alcotest.test_case "disabled stamps cp" `Quick test_tracer_disabled_still_stamps;
        ] );
      ( "install",
        [ Alcotest.test_case "helpers" `Quick test_install_helpers ] );
      ( "export",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "metrics csv" `Quick test_metrics_csv;
          Alcotest.test_case "exact gauge" `Quick test_exact_gauge;
          Alcotest.test_case "escaped names round-trip" `Quick test_escaped_names;
          Alcotest.test_case "trace csv+json" `Quick test_trace_exports;
        ] );
      ( "spans",
        [
          Alcotest.test_case "enter/exit semantics" `Quick test_span_semantics;
          Alcotest.test_case "json round-trip" `Quick test_span_json_roundtrip;
          Alcotest.test_case "cp phase accounting" `Quick test_cp_phase_accounting;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "ring + schema" `Quick test_timeseries_ring;
          Alcotest.test_case "json round-trip" `Quick test_timeseries_json_roundtrip;
          Alcotest.test_case "csv round-trip" `Quick test_timeseries_csv_roundtrip;
        ] );
      (* Alcotest fits each printed line into 80 columns, padding group
         labels to the widest one; this label is 18 characters, the width
         the suite has long used, so the printed case names stay stable. *)
      ( "cp column contract",
        [
          Alcotest.test_case "schema" `Quick test_cp_schema;
          Alcotest.test_case "series json units and kinds" `Quick test_cp_series_json;
          Alcotest.test_case "columns match the report" `Quick test_cp_columns_match_report;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled tracing allocates nothing" `Quick
            test_disabled_tracing_allocates_nothing;
          Alcotest.test_case "uninstalled spans allocate nothing" `Quick
            test_uninstalled_spans_allocate_nothing;
        ] );
    ]
