(** JSON, CSV and Prometheus renderings of a telemetry instance.  Each
    JSON export is one {!Wafl_util.Json.t} printed by
    {!Wafl_util.Json.to_string}: compact, on one newline-terminated line.
    Every number, in JSON, CSV and Prometheus alike, is printed by
    {!Wafl_util.Json.number}, so it parses back to the recorded value
    exactly.  Output is deterministic: metrics in registration order,
    series rows and events oldest first.  A span kind appears in the
    metrics exports once it has fired: entered at least once, or open. *)

val metrics_json : Telemetry.t -> string
(** One JSON object:
    {v
    { "counters":   { name: int, ... },
      "gauges":     { name: float, ... },
      "spans":      { name: { "count": int, "total_ns": int, "open": int,
                              "parent": str|null } },
      "timeseries": { "columns": [str], "appended": int, "retained": int },
      "trace":      { "emitted": int, "retained": int } }
    v}
    Only span kinds that fired appear; the time-series rows themselves are
    exported separately by {!timeseries_json}/{!timeseries_csv}. *)

val metrics_csv : Telemetry.t -> string
(** [kind,name,value] rows for counters and gauges; fired span kinds
    flatten to [.count]/[.total_ns]/[.open] rows. *)

val metrics_prom : Telemetry.t -> string
(** Prometheus text exposition (format 0.0.4).  Dotted registry names
    become [wafl_]-prefixed underscore names with [# TYPE] lines
    (counters take the [_total] suffix); the newest time-series row
    renders as one [wafl_cp_<column>] gauge per column, its [# HELP]
    line stating the column's unit and kind; fired spans render
    [_count]/[_total_ns] counters.
    When the instance carries a latency recorder, per-(op, volume)
    latency histograms export as [wafl_op_latency_ms_bucket{op=,vol=,le=}]
    (le in milliseconds) plus headline p50/p99/p999 quantile gauges. *)

val timeseries_json : Telemetry.t -> string
(** The recorded per-CP series:
    {v
    { "columns": [str], "units": [str], "kinds": [str],
      "appended": int, "retained": int,
      "rows": [ [num|null, ...], ... ] }
    v}
    [units] and [kinds] line up with [columns]; a kind is ["count"],
    ["modeled"] or ["measured"] ({!Timeseries.kind}).
    Cells print so that parsing them back yields the recorded float
    exactly (non-finite cells become [null]). *)

val timeseries_csv : Telemetry.t -> string
(** Header row of column names, then one row per retained sample, oldest
    first.  Cells round-trip exactly (non-finite cells print as [nan]). *)

val trace_csv : Telemetry.t -> string
(** Retained events, one row each, with a fixed header.  Columns that do
    not apply to an event kind are left empty. *)

val trace_json : Telemetry.t -> string
(** JSON array of event objects ([{"event": ..., "cp": ..., ...}]), each
    with the fields of its kind: strings for [event] and [slo], numbers
    for the rest. *)
