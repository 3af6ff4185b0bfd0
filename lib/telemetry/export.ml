let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ escape_json s ^ "\""

(* JSON has no NaN/inf; clamp to null *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let comma_sep buf items render =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ",";
      render x)
    items

let metrics_json tel =
  let counters, gauges =
    Registry.fold (Telemetry.registry tel) ~init:([], []) ~f:(fun (cs, gs) m ->
        match m with
        | Registry.Counter c -> ((Registry.name m, c) :: cs, gs)
        | Registry.Gauge g -> (cs, (Registry.name m, g) :: gs))
  in
  let counters = List.rev counters and gauges = List.rev gauges in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n  \"counters\": {";
  comma_sep buf counters (fun (n, c) ->
      add (Printf.sprintf "\n    %s: %d" (json_string n) (Registry.count c)));
  add (if counters = [] then "},\n" else "\n  },\n");
  add "  \"gauges\": {";
  comma_sep buf gauges (fun (n, g) ->
      add (Printf.sprintf "\n    %s: %s" (json_string n) (json_float (Registry.value g))));
  add (if gauges = [] then "},\n" else "\n  },\n");
  let sp = Telemetry.spans tel in
  add "  \"spans\": {";
  comma_sep buf
    (List.filter (fun k -> Span.count sp k > 0 || Span.open_now sp k > 0) Span.all)
    (fun k ->
      add
        (Printf.sprintf
           "\n    %s: { \"count\": %d, \"total_ns\": %d, \"open\": %d, \"parent\": %s }"
           (json_string (Span.name k)) (Span.count sp k) (Span.total_ns sp k)
           (Span.open_now sp k)
           (match Span.parent k with
           | None -> "null"
           | Some p -> json_string (Span.name p))));
  add
    (if List.for_all (fun k -> Span.count sp k = 0 && Span.open_now sp k = 0) Span.all then
       "},\n"
     else "\n  },\n");
  let ts = Telemetry.series tel in
  add "  \"timeseries\": { \"columns\": [";
  comma_sep buf (Timeseries.columns ts) (fun c -> add (json_string c));
  add
    (Printf.sprintf "], \"appended\": %d, \"retained\": %d },\n" (Timeseries.appended ts)
       (Timeseries.length ts));
  let tr = Telemetry.tracer tel in
  add
    (Printf.sprintf "  \"trace\": { \"emitted\": %d, \"retained\": %d }\n}\n"
       (Tracer.emitted tr) (Tracer.length tr));
  Buffer.contents buf

(* quote a CSV field only when it needs it *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let metrics_csv tel =
  let buf = Buffer.create 1024 in
  let row kind name value =
    Buffer.add_string buf (Printf.sprintf "%s,%s,%s\n" kind (csv_field name) value)
  in
  Buffer.add_string buf "kind,name,value\n";
  Registry.fold (Telemetry.registry tel) ~init:() ~f:(fun () m ->
      let name = Registry.name m in
      match m with
      | Registry.Counter c -> row "counter" name (string_of_int (Registry.count c))
      | Registry.Gauge g -> row "gauge" name (Printf.sprintf "%.6g" (Registry.value g)));
  let sp = Telemetry.spans tel in
  List.iter
    (fun k ->
      if Span.count sp k > 0 || Span.open_now sp k > 0 then begin
        let n = Span.name k in
        row "span" (n ^ ".count") (string_of_int (Span.count sp k));
        row "span" (n ^ ".total_ns") (string_of_int (Span.total_ns sp k));
        row "span" (n ^ ".open") (string_of_int (Span.open_now sp k))
      end)
    Span.all;
  Buffer.contents buf

(* Wide trace rows: every event kind fills the columns it has. *)
let trace_columns =
  [
    "event"; "cp"; "space"; "aa"; "score"; "listed"; "tetrises"; "full_stripes";
    "partial_stripes"; "aas"; "relocated"; "reclaimed"; "transients"; "torn"; "failed";
    "spikes"; "retries"; "ok"; "slo"; "burn_fast"; "burn_slow"; "violations";
  ]

(* Trace fields whose values are strings, not numbers (for trace_json). *)
let string_field k = k = "event" || k = "slo"

let event_fields (ev : Tracer.event) =
  match ev with
  | Tracer.Cp_begin _ -> []
  | Tracer.Aa_pick e ->
    [
      ("space", string_of_int e.space);
      ("aa", string_of_int e.aa);
      ("score", string_of_int e.score);
    ]
  | Tracer.Cache_replenish e ->
    [ ("space", string_of_int e.space); ("listed", string_of_int e.listed) ]
  | Tracer.Tetris_write e ->
    [
      ("space", string_of_int e.space);
      ("tetrises", string_of_int e.tetrises);
      ("full_stripes", string_of_int e.full_stripes);
      ("partial_stripes", string_of_int e.partial_stripes);
    ]
  | Tracer.Cleaner_pass e ->
    [
      ("aas", string_of_int e.aas);
      ("relocated", string_of_int e.relocated);
      ("reclaimed", string_of_int e.reclaimed);
    ]
  | Tracer.Fault_inject e ->
    [
      ("space", string_of_int e.space);
      ("transients", string_of_int e.transients);
      ("torn", string_of_int e.torn);
      ("failed", string_of_int e.failed);
      ("spikes", string_of_int e.spikes);
    ]
  | Tracer.Io_retry e ->
    [
      ("space", string_of_int e.space);
      ("retries", string_of_int e.retries);
      ("ok", string_of_int e.ok);
    ]
  | Tracer.Slo_violation e ->
    [
      ("slo", e.slo);
      ("burn_fast", Printf.sprintf "%.3f" e.burn_fast);
      ("burn_slow", Printf.sprintf "%.3f" e.burn_slow);
      ("violations", string_of_int e.violations);
    ]

let trace_csv tel =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," trace_columns);
  Buffer.add_char buf '\n';
  List.iter
    (fun ev ->
      let fields =
        ("event", Tracer.event_name ev)
        :: ("cp", string_of_int (Tracer.event_cp ev))
        :: event_fields ev
      in
      let cells =
        List.map
          (fun col -> match List.assoc_opt col fields with Some v -> csv_field v | None -> "")
          trace_columns
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    (Tracer.to_list (Telemetry.tracer tel));
  Buffer.contents buf

let trace_json tel =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  comma_sep buf
    (Tracer.to_list (Telemetry.tracer tel))
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "\n  { \"event\": %s, \"cp\": %d" (json_string (Tracer.event_name ev))
           (Tracer.event_cp ev));
      List.iter
        (fun (k, v) ->
          let rendered =
            (* numeric fields stay numeric in JSON *)
            if string_field k then json_string v else v
          in
          Buffer.add_string buf (Printf.sprintf ", %s: %s" (json_string k) rendered))
        (event_fields ev);
      Buffer.add_string buf " }");
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* Series cells must parse back to the exact recorded float: integers (the
   common case — counts, ns) print without an exponent, anything else gets
   17 significant digits, which round-trips every finite double. *)
let series_cell f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let timeseries_json tel =
  let ts = Telemetry.series tel in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let schema = Timeseries.schema ts in
  let strings key f =
    add (Printf.sprintf "  %s: [" (json_string key));
    comma_sep buf schema (fun c -> add (json_string (f c)));
    add "],\n"
  in
  add "{\n";
  strings "columns" (fun c -> c.Timeseries.name);
  strings "units" (fun c -> c.Timeseries.unit);
  strings "kinds" (fun c -> Timeseries.kind_name c.Timeseries.kind);
  add (Printf.sprintf "  \"appended\": %d,\n  \"retained\": %d,\n  \"rows\": ["
         (Timeseries.appended ts) (Timeseries.length ts));
  comma_sep buf (Timeseries.rows ts) (fun row ->
      add "\n    [";
      Array.iteri
        (fun i v ->
          if i > 0 then add ",";
          add (if Float.is_finite v then series_cell v else "null"))
        row;
      add "]");
  add (if Timeseries.length ts = 0 then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buf

(* --- Prometheus text exposition (version 0.0.4) --- *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the registry uses dotted names,
   so dots (and any other illegal character) become underscores, and
   everything gets a "wafl_" prefix. *)
let prom_name s =
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
        || (i > 0 && c >= '0' && c <= '9')
      in
      if not ok then Bytes.set b i '_')
    b;
  "wafl_" ^ Bytes.to_string b

let prom_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let metrics_prom tel =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  Registry.fold (Telemetry.registry tel) ~init:() ~f:(fun () m ->
      let n = prom_name (Registry.name m) in
      match m with
      | Registry.Counter c ->
        (* The conventional [_total] suffix also keeps a counter apart from
           the same-named column gauge below ([cp.ops] vs column [ops]). *)
        add (Printf.sprintf "# TYPE %s_total counter\n%s_total %d\n" n n (Registry.count c))
      | Registry.Gauge g ->
        add
          (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n
             (prom_float (Registry.value g))));
  (* The newest CP row: one gauge per series column, unit and kind in HELP. *)
  let ts = Telemetry.series tel in
  Option.iter
    (fun row ->
      List.iteri
        (fun i (c : Timeseries.column) ->
          let n = prom_name ("cp." ^ c.name) in
          add
            (Printf.sprintf "# HELP %s newest CP, %s (%s)\n# TYPE %s gauge\n%s %s\n" n
               c.unit (Timeseries.kind_name c.kind) n n (prom_float row.(i))))
        (Timeseries.schema ts))
    (Timeseries.last ts);
  let sp = Telemetry.spans tel in
  List.iter
    (fun k ->
      if Span.count sp k > 0 then begin
        let n = prom_name ("span." ^ Span.name k) in
        add
          (Printf.sprintf "# TYPE %s_count counter\n%s_count %d\n" n n
             (Span.count sp k));
        add
          (Printf.sprintf "# TYPE %s_total_ns counter\n%s_total_ns %d\n" n n
             (Span.total_ns sp k))
      end)
    Span.all;
  (match Telemetry.latency tel with
  | None -> ()
  | Some lat ->
    let name = "wafl_op_latency_ms" in
    add (Printf.sprintf "# TYPE %s histogram\n" name);
    let vols = Latency.vols lat in
    List.iter
      (fun op ->
        List.iter
          (fun (slot, vname) ->
            let h = Latency.cell lat ~op ~vol:slot in
            if Hdrhist.count h > 0 then begin
              let labels =
                Printf.sprintf "op=\"%s\",vol=\"%s\"" (Latency.op_name op)
                  (prom_label_value vname)
              in
              let cum = ref 0 in
              Hdrhist.iter_nonempty h (fun ~lo:_ ~hi ~count ->
                  cum := !cum + count;
                  add
                    (Printf.sprintf "%s_bucket{%s,le=\"%s\"} %d\n" name labels
                       (prom_float (float_of_int hi /. 1e6))
                       !cum));
              add
                (Printf.sprintf "%s_bucket{%s,le=\"+Inf\"} %d\n" name labels
                   (Hdrhist.count h));
              add
                (Printf.sprintf "%s_sum{%s} %s\n" name labels
                   (prom_float (float_of_int (Hdrhist.sum h) /. 1e6)));
              add (Printf.sprintf "%s_count{%s} %d\n" name labels (Hdrhist.count h))
            end)
          vols)
      Latency.all_ops;
    (* Headline quantiles as gauges, overall and per volume. *)
    let q name' labels (p50, p99, p999) =
      add (Printf.sprintf "# TYPE %s gauge\n" name');
      add
        (Printf.sprintf "%s{%squantile=\"0.5\"} %s\n" name' labels
           (prom_float p50));
      add
        (Printf.sprintf "%s{%squantile=\"0.99\"} %s\n" name' labels
           (prom_float p99));
      add
        (Printf.sprintf "%s{%squantile=\"0.999\"} %s\n" name' labels
           (prom_float p999))
    in
    if Latency.ops_recorded lat > 0 then begin
      q "wafl_op_latency_quantile_ms" "" (Latency.quantiles_ms lat);
      List.iter
        (fun (slot, vname) ->
          q "wafl_op_latency_vol_quantile_ms"
            (Printf.sprintf "vol=\"%s\"," (prom_label_value vname))
            (Latency.quantiles_ms ~vol:slot lat))
        vols
    end);
  Buffer.contents buf

let timeseries_csv tel =
  let ts = Telemetry.series tel in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," (List.map csv_field (Timeseries.columns ts)));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (if Float.is_finite v then series_cell v else "nan"))
        row;
      Buffer.add_char buf '\n')
    (Timeseries.rows ts);
  Buffer.contents buf
