(** Turns a CP's raw counts into time, mirroring the paper's metrics.

    The paper reports (a) latency-vs-throughput curves, (b) CPU overhead per
    client operation (§4.1.2's 309 vs 293 usec/op), and (c) the share of CPU
    spent maintaining AA caches (~0.002%).  We model the per-operation
    service demand as

    - a fixed CPU cost per operation (protocol + WAFL code path),
    - CPU + I/O for each bitmap-metafile page the CP dirtied (the cost that
      virtual-VBN colocation amortizes, §2.5),
    - the device time the CP's flush needed (from the device simulators,
      already parallel across ranges),
    - the cache maintenance work (abstract units from {!Wafl_aacache.Cache}).

    The constants are {!Wafl_telemetry.Latency.model}, the one cost table
    the request-latency clock also prices with; absolute values are
    calibration, the experiments compare ratios. *)

type op_costs = {
  ops : int;
  cpu_us_per_op : float;       (** total CPU / ops — the §4.1.2 metric *)
  cache_us_per_op : float;     (** cache maintenance share of the above *)
  service_time_us : float;     (** per-op service demand incl. device time *)
  cp_duration_us : float;
}

val of_report : Wafl_core.Cp.report -> op_costs
(** Costs of one CP.  [ops] must be positive in the report. *)

val combine : op_costs list -> op_costs
(** Aggregate several CPs into steady-state averages. *)
