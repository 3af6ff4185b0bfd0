(** Closed-loop and open-loop response-time helpers.

    The paper's latency-vs-throughput plots (Figs. 6, 8, 9) come from
    closed-loop Fibre Channel clients ramping offered load against a storage
    server.  We reproduce the curve shape with standard queueing formulas
    applied to the per-operation service demand produced by the simulator's
    cost model: latency is flat near the service time at low utilization and
    grows sharply as offered load approaches the service capacity. *)

val mg1_response_time :
  service_time:float -> cv2:float -> arrival_rate:float -> float option
(** Pollaczek-Khinchine mean response time for an M/G/1 queue.
    [service_time] is the mean service time (seconds/op), [cv2] the squared
    coefficient of variation of service times, [arrival_rate] in ops/sec.
    [None] when the queue is unstable (utilization >= 1). *)

val sweep :
  service_time:float -> cv2:float -> loads:float list ->
  (float * float) list
(** [(throughput, latency)] for each offered load of a latency-throughput
    sweep.  At stable loads this is the M/G/1 response time; past
    saturation (98% of capacity), throughput caps there and latency grows
    linearly with the excess offered load (clients queue up), matching the
    hockey-stick shape of the paper's figures. *)
