(** Latency-vs-throughput sweeps (§4.1's methodology).

    The paper ramps closed-loop clients against the server and plots
    latency against achieved throughput per client.  We measure the
    steady-state per-op service demand by running CPs of a fixed batch size
    against the simulated system, then sweep offered load through an M/G/1
    model of the server to obtain the familiar hockey-stick curve.  The
    comparisons between configurations (cache on/off, AA size) come
    entirely from the measured service times; the queueing model only maps
    them onto a load axis. *)

type point = {
  offered_load : float;      (** ops/sec *)
  throughput : float;        (** achieved ops/sec *)
  latency_ms : float;
}

type curve = {
  label : string;
  service_time_us : float;
  cpu_us_per_op : float;
  cache_us_per_op : float;
  points : point list;
}

val measure_service_time :
  cps:int -> ops_per_cp:int ->
  step:(int -> Wafl_core.Cp.report) -> unit -> Cost_model.op_costs
(** Run [cps] consistency points of [ops_per_cp] staged operations each via
    [step] (which stages and runs one CP, returning its report) and combine
    into steady-state per-op costs. *)

val sweep : label:string -> Cost_model.op_costs -> curve
(** Build the latency-throughput curve for a measured service demand via
    {!Wafl_util.Queueing.sweep} with exponential service times
    ([cv2 = 1]); offered loads ramp from 5% to 160% of the service
    capacity. *)

val peak_throughput : curve -> float
val latency_at_peak_ms : curve -> float

val latency_at_load_ms : curve -> float -> (float, string) result
(** Interpolated model latency at an offered load.  Out-of-range loads
    return [Error] with a printable explanation ("offered load ... exceeds
    peak throughput ..." above the sweep, a below-minimum message under
    it) — CLI callers surface the message instead of silently dropping
    the point. *)

val to_series : curve -> Wafl_util.Series.t
(** x = throughput (kops/s), y = latency (ms). *)
