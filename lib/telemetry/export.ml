module Json = Wafl_util.Json

let int n = Json.Num (float_of_int n)
let int_number n = Json.number (float_of_int n)
let strings l = Json.List (List.map (fun s -> Json.Str s) l)

(* One JSON document per file, newline-terminated. *)
let doc v = Json.to_string v ^ "\n"

(* Span kinds that fired: entered at least once or still open. *)
let fired_spans sp =
  List.filter (fun k -> Span.count sp k > 0 || Span.open_now sp k > 0) Span.all

let metrics_json tel =
  let counters, gauges =
    Registry.fold (Telemetry.registry tel) ~init:([], []) ~f:(fun (cs, gs) m ->
        match m with
        | Registry.Counter c -> ((Registry.name m, int (Registry.count c)) :: cs, gs)
        | Registry.Gauge g -> (cs, (Registry.name m, Json.Num (Registry.value g)) :: gs))
  in
  let sp = Telemetry.spans tel in
  let span k =
    ( Span.name k,
      Json.Obj
        [
          ("count", int (Span.count sp k));
          ("total_ns", int (Span.total_ns sp k));
          ("open", int (Span.open_now sp k));
          ("parent", match Span.parent k with None -> Json.Null | Some p -> Json.Str (Span.name p));
        ] )
  in
  let ts = Telemetry.series tel and tr = Telemetry.tracer tel in
  doc
    (Json.Obj
       [
         ("counters", Json.Obj (List.rev counters));
         ("gauges", Json.Obj (List.rev gauges));
         ("spans", Json.Obj (List.map span (fired_spans sp)));
         ( "timeseries",
           Json.Obj
             [
               ("columns", strings (Timeseries.columns ts));
               ("appended", int (Timeseries.appended ts));
               ("retained", int (Timeseries.length ts));
             ] );
         ( "trace",
           Json.Obj [ ("emitted", int (Tracer.emitted tr)); ("retained", int (Tracer.length tr)) ]
         );
       ])

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
      | Registry.Counter c -> row "counter" name (int_number (Registry.count c))
      | Registry.Gauge g -> row "gauge" name (Json.number (Registry.value g)));
  let sp = Telemetry.spans tel in
  List.iter
    (fun k ->
      let n = Span.name k in
      row "span" (n ^ ".count") (int_number (Span.count sp k));
      row "span" (n ^ ".total_ns") (int_number (Span.total_ns sp k));
      row "span" (n ^ ".open") (int_number (Span.open_now sp k)))
    (fired_spans sp);
  Buffer.contents buf

(* Wide trace rows: every event kind fills the columns it has. *)
let trace_columns =
  [
    "event"; "cp"; "space"; "aa"; "score"; "listed"; "tetrises"; "full_stripes";
    "partial_stripes"; "aas"; "relocated"; "reclaimed"; "transients"; "torn"; "failed";
    "spikes"; "retries"; "ok"; "slo"; "burn_fast"; "burn_slow"; "violations";
  ]

let event_fields (ev : Tracer.event) =
  let fields =
    match ev with
    | Tracer.Cp_begin _ -> []
    | Tracer.Aa_pick e -> [ ("space", int e.space); ("aa", int e.aa); ("score", int e.score) ]
    | Tracer.Cache_replenish e -> [ ("space", int e.space); ("listed", int e.listed) ]
    | Tracer.Tetris_write e ->
      [
        ("space", int e.space);
        ("tetrises", int e.tetrises);
        ("full_stripes", int e.full_stripes);
        ("partial_stripes", int e.partial_stripes);
      ]
    | Tracer.Cleaner_pass e ->
      [ ("aas", int e.aas); ("relocated", int e.relocated); ("reclaimed", int e.reclaimed) ]
    | Tracer.Fault_inject e ->
      [
        ("space", int e.space);
        ("transients", int e.transients);
        ("torn", int e.torn);
        ("failed", int e.failed);
        ("spikes", int e.spikes);
      ]
    | Tracer.Io_retry e -> [ ("space", int e.space); ("retries", int e.retries); ("ok", int e.ok) ]
    | Tracer.Slo_violation e ->
      [
        ("slo", Json.Str e.slo);
        ("burn_fast", Json.Num e.burn_fast);
        ("burn_slow", Json.Num e.burn_slow);
        ("violations", int e.violations);
      ]
  in
  ("event", Json.Str (Tracer.event_name ev)) :: ("cp", int (Tracer.event_cp ev)) :: fields

let csv_cell = function Json.Str s -> csv_field s | v -> Json.to_string v

let trace_csv tel =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," trace_columns);
  Buffer.add_char buf '\n';
  List.iter
    (fun ev ->
      let fields = event_fields ev in
      let cells =
        List.map
          (fun col -> Option.fold ~none:"" ~some:csv_cell (List.assoc_opt col fields))
          trace_columns
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    (Tracer.to_list (Telemetry.tracer tel));
  Buffer.contents buf

let trace_json tel =
  doc
    (Json.List
       (List.map (fun ev -> Json.Obj (event_fields ev)) (Tracer.to_list (Telemetry.tracer tel))))

let timeseries_json tel =
  let ts = Telemetry.series tel in
  let schema = Timeseries.schema ts in
  let column f = strings (List.map f schema) in
  doc
    (Json.Obj
       [
         ("columns", column (fun c -> c.Timeseries.name));
         ("units", column (fun c -> c.Timeseries.unit));
         ("kinds", column (fun c -> Timeseries.kind_name c.Timeseries.kind));
         ("appended", int (Timeseries.appended ts));
         ("retained", int (Timeseries.length ts));
         ( "rows",
           Json.List
             (List.map
                (fun row -> Json.List (Array.to_list (Array.map (fun v -> Json.Num v) row)))
                (Timeseries.rows ts)) );
       ])

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

let metrics_prom tel =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  Registry.fold (Telemetry.registry tel) ~init:() ~f:(fun () m ->
      let n = prom_name (Registry.name m) in
      match m with
      | Registry.Counter c ->
        (* The conventional [_total] suffix also keeps a counter apart from
           the same-named column gauge below ([cp.ops] vs column [ops]). *)
        add
          (Printf.sprintf "# TYPE %s_total counter\n%s_total %s\n" n n
             (int_number (Registry.count c)))
      | Registry.Gauge g ->
        add (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (Json.number (Registry.value g))));
  (* The newest CP row: one gauge per series column, unit and kind in HELP. *)
  let ts = Telemetry.series tel in
  Option.iter
    (fun row ->
      List.iteri
        (fun i (c : Timeseries.column) ->
          let n = prom_name ("cp." ^ c.name) in
          add
            (Printf.sprintf "# HELP %s newest CP, %s (%s)\n# TYPE %s gauge\n%s %s\n" n
               c.unit (Timeseries.kind_name c.kind) n n (Json.number row.(i))))
        (Timeseries.schema ts))
    (Timeseries.last ts);
  let sp = Telemetry.spans tel in
  List.iter
    (fun k ->
      let n = prom_name ("span." ^ Span.name k) in
      add
        (Printf.sprintf "# TYPE %s_count counter\n%s_count %s\n" n n
           (int_number (Span.count sp k)));
      add
        (Printf.sprintf "# TYPE %s_total_ns counter\n%s_total_ns %s\n" n n
           (int_number (Span.total_ns sp k))))
    (fired_spans sp);
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
                    (Printf.sprintf "%s_bucket{%s,le=\"%s\"} %s\n" name labels
                       (Json.number (float_of_int hi /. 1e6))
                       (int_number !cum)));
              add
                (Printf.sprintf "%s_bucket{%s,le=\"+Inf\"} %s\n" name labels
                   (int_number (Hdrhist.count h)));
              add
                (Printf.sprintf "%s_sum{%s} %s\n" name labels
                   (Json.number (float_of_int (Hdrhist.sum h) /. 1e6)));
              add (Printf.sprintf "%s_count{%s} %s\n" name labels (int_number (Hdrhist.count h)))
            end)
          vols)
      Latency.all_ops;
    (* Headline quantiles as gauges, overall and per volume. *)
    let q name' labels (p50, p99, p999) =
      add (Printf.sprintf "# TYPE %s gauge\n" name');
      List.iter
        (fun (quantile, v) ->
          add (Printf.sprintf "%s{%squantile=\"%s\"} %s\n" name' labels quantile (Json.number v)))
        [ ("0.5", p50); ("0.99", p99); ("0.999", p999) ]
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
          Buffer.add_string buf (if Float.is_finite v then Json.number v else "nan"))
        row;
      Buffer.add_char buf '\n')
    (Timeseries.rows ts);
  Buffer.contents buf
