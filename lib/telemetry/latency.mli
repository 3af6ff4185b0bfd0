(** Per-op request latency accounting.

    The sim has no real clients, so per-op latency comes from a {e modeled
    clock}: every workload op staged into a CP is assigned

      [latency(op) = wait_in_batch + cp_duration]

    where [cp_duration] is the modeled service time of the CP that
    committed it (CPU + metafile pages + AA scan + device flush, including
    any injected device latency spikes, priced by the cost table {!model},
    which [Sim.Cost_model] reads too), and [wait_in_batch] spreads the ops
    across the arrival window (the previous CP's duration, since ops
    accumulate while the previous CP drains): op [i] of [n] waits
    [(n-1-i)/n * arrival].  The clock is deterministic and integer-only on
    the per-op path.

    Samples land in log-linear {!Hdrhist}s: one per (op kind x volume
    slot), one per volume slot and one overall.  Like {!Timeseries}, the
    recorder is written only from the tail of [Cp.run]; recording is
    allocation-free in steady state and reads return the stored
    histograms.

    Tail exemplars: when an op's modeled latency clears the current p999
    (tracked across CPs), a preallocated slot captures (latency, op kind,
    volume, CP index, blame phase).  The blame phase is the span kind of
    the CP's dominant cost component — [Pick]/[Harvest] when the AA scan
    dominates, [Activemap_commit] for metafile pages, [Device_flush] for
    device time (so a spike-inflated outlier names the faulted device
    phase), [Cp] when per-op CPU dominates — rendered with its static
    span-stack parents. *)

type op = Write | Overwrite

val op_name : op -> string
val all_ops : op list

(** Cost constants of the modeled clock, in per-simulated-core
    microseconds.  The one cost table: [Sim.Cost_model] prices its CP
    reports with these same values. *)
type model = {
  cpu_base_us_per_op : float;  (** fixed WAFL code-path cost per op *)
  metafile_page_cpu_us : float;  (** CPU to update + checksum one page *)
  metafile_page_write_us : float;  (** device time to write one page *)
  cache_work_unit_us : float;  (** one abstract cache-maintenance unit *)
  alloc_candidate_us : float;
      (** allocation-path CPU per candidate block examined while gathering
          an AA's free VBNs *)
}

val model : model

type t

val create : ?slo:Slo.t -> unit -> t
(** Keys up to 16 volumes (later ones share the last slot) and keeps 32
    tail-exemplar slots, overwritten round-robin once full. *)

val vol_slot : t -> uid:int -> name:string -> int
(** Dense slot for a volume uid, registering it (with a display name) on
    first sight.  Called from the CP path only — not thread-safe. *)

val vols : t -> (int * string) list
(** Registered (slot, name) pairs in first-seen order. *)

val cp_record :
  t ->
  groups:(int * int * int) list ->
  pages:int ->
  cache_work:int ->
  candidates:int ->
  device_us:float ->
  spike_us:float ->
  pick_ns:int ->
  harvest_ns:int ->
  unit
(** Assign modeled latencies to every op of one committed CP and record
    them.  [groups] lists [(vol_slot, fresh_writes, overwrites)] per
    volume; [pages] is metafile pages written, [cache_work]/[candidates]
    feed the cache and AA-scan cost terms, [device_us] is the modeled
    device time {e including} [spike_us] (injected fault penalty, used
    only for attribution), and [pick_ns]/[harvest_ns] split the scan cost
    between the two span kinds for blame.  Also ticks the SLO windows and
    captures tail exemplars.  Serial (CP boundary) only. *)

val ops_recorded : t -> int
val cps_recorded : t -> int

val hist : ?vol:int -> t -> Hdrhist.t
(** Every recorded op, or only volume slot [vol]'s.  The stored
    histogram, not a copy: read it, never record into it. *)

val cell : t -> op:op -> vol:int -> Hdrhist.t
(** Ops of one kind on one volume slot; stored, like {!hist}. *)

val quantiles_ms : ?vol:int -> t -> float * float * float
(** [(p50, p99, p999)] in milliseconds; zeros when empty. *)

type exemplar = {
  ex_ns : int;
  ex_op : op;
  ex_vol : int;
  ex_vol_name : string;
  ex_cp : int;
  ex_phase : Span.kind;
}

val exemplars : t -> exemplar list
(** Captured tail exemplars, slowest first. *)

val phase_stack : Span.kind -> string
(** Render a blame phase with its static parents, e.g.
    ["cp > cp.device_flush"]. *)

val last_slo_reports : t -> Slo.report list
(** SLO reports from the most recent [cp_record]; [[]] before the first
    CP or without an SLO config. *)
