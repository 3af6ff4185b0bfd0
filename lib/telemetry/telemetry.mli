(** Telemetry subsystem front-end: one {!Registry.t} of counters and
    gauges, one {!Tracer.t} of structured events, one {!Span.t}
    phase-span recorder and one {!Timeseries.t} of per-CP rows (one per
    consistency point, projected from [Cp.report] by [Cp.run]).

    Instrumented code does not thread a handle around; it goes through the
    process-wide {e installed} instance.  When nothing is installed every
    helper below is a single match on a global ref — no allocation, no
    lookup — so an uninstrumented run pays (almost) nothing.  The trace
    emitters additionally check the tracer's enabled flag, so an installed
    instance with tracing off still allocates nothing on the pick path.
    The time series is sampled only from the tail of [Cp.run].

    Typical use:
    {[
      let tel = Telemetry.create ~tracing:true () in
      Telemetry.install tel;
      (* ... run workload ... *)
      Telemetry.uninstall ();
      print_string (Export.metrics_json tel)
    ]} *)

type t

val create :
  ?trace_capacity:int -> ?series_capacity:int -> ?clock:(unit -> int) ->
  ?tracing:bool -> ?latency:Latency.t -> unit -> t
(** [trace_capacity] defaults to 4096 events, [series_capacity] to 4096
    time-series rows (both raise [Invalid_argument] when not positive);
    [tracing] (the tracer's enabled flag) to [false]; [clock] (the span
    recorder's nanosecond clock, injectable for tests) to the wall clock.
    Metrics, spans and the series are always on for an installed
    instance; event tracing and request-latency accounting ([latency],
    off by default) have separate switches. *)

val registry : t -> Registry.t
val tracer : t -> Tracer.t
val spans : t -> Span.t
val series : t -> Timeseries.t

val latency : t -> Latency.t option
(** The request-latency recorder, when this instance carries one. *)

(* --- process-wide installation --- *)

val install : t -> unit
(** Replaces any previously installed instance. *)

val uninstall : unit -> unit
val is_active : unit -> bool

val with_installed : t -> (unit -> 'a) -> 'a
(** Install, run, uninstall (also on exception). *)

(* --- helpers against the installed instance (no-ops when none) --- *)

val incr : string -> unit
val add : string -> int -> unit
val set_gauge : string -> float -> unit
val max_gauge : string -> float -> unit

(* --- phase spans (branch-only no-ops when uninstalled) --- *)

val span_enter : Span.kind -> unit
val span_exit : Span.kind -> unit
(** Open / close a phase span on the installed recorder.  Uninstalled,
    each is a single match on the global ref — zero allocation, so span
    instrumentation may sit on (the refill edges of) the allocation hot
    path without violating the consume-window guarantee. *)

val now_ns : unit -> int
(** The span clock, or 0 when uninstalled — for per-CP wall-time deltas
    without paying a clock read on uninstrumented runs. *)

val span_total_ns : Span.kind -> int
(** Accumulated ns of the kind on the installed recorder (0 when none). *)

(* --- time series --- *)

val sample : columns:Timeseries.column list -> (t -> float array) -> unit
(** Append one row to the installed instance's time series: fixes the
    schema on first use ({!Timeseries.set_columns}), appends the row built
    from the installed instance, then runs the {!on_sample} hook.  The row
    function only runs when an instance is installed. *)

val on_sample : t -> (unit -> unit) option -> unit
(** Hook invoked after every {!sample} append — the live reporter's
    refresh trigger. *)

(* --- trace emitters (no-op unless installed AND tracing enabled) --- *)

val trace_cp_begin : unit -> unit
val trace_aa_pick : space:int -> aa:int -> score:int -> unit
val trace_cache_replenish : space:int -> listed:int -> unit

val trace_tetris_write :
  space:int -> tetrises:int -> full_stripes:int -> partial_stripes:int -> unit

val trace_cleaner_pass : aas:int -> relocated:int -> reclaimed:int -> unit

val trace_fault_inject :
  space:int -> transients:int -> torn:int -> failed:int -> spikes:int -> unit

val trace_io_retry : space:int -> retries:int -> ok:int -> unit

(* --- request latency (no-ops unless the installed instance carries a
   {!Latency.t}) --- *)

val lat_active : unit -> bool
(** Whether latency accounting is live — instrumentation sites use this to
    skip their bookkeeping entirely.  Uninstalled (or installed without a
    latency recorder) this is a branch, no allocation. *)

val lat_vol_slot : uid:int -> name:string -> int
(** Dense per-run volume slot for latency keying ([-1] when inactive). *)

val lat_cp_record :
  groups:(int * int * int) list ->
  pages:int ->
  cache_work:int ->
  candidates:int ->
  device_us:float ->
  spike_us:float ->
  pick_ns:int ->
  harvest_ns:int ->
  unit
(** Feed one committed CP into {!Latency.cp_record}, then publish the SLO
    burn rates as gauges ([slo.NAME.burn_fast]/[.burn_slow]), violation
    counts as counters ([slo.NAME.violations]), and — on a breach — bump
    [slo.NAME.breaches] and emit a [Slo_violation] trace event. *)

val lat_quantiles_ms : vol:int -> float * float * float
(** [(p50, p99, p999)] ms from the installed latency recorder; [vol >= 0]
    filters to that volume slot, [-1] gives the overall view.  Zeros when
    inactive — the fixed time-series schema keeps its latency columns
    either way. *)
