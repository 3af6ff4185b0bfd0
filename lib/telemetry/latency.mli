(** Per-op request latency accounting.

    The sim has no real clients, so per-op latency comes from a {e modeled
    clock}: every workload op staged into a CP is assigned

      [latency(op) = wait_in_batch + cp_duration]

    where [cp_duration] is the modeled service time of the CP that
    committed it (CPU + metafile pages + AA scan + device flush, including
    any injected device latency spikes — the same cost constants as
    [Sim.Cost_model], mirrored in {!model} to keep the dependency arrow
    pointing sim -> telemetry), and [wait_in_batch] spreads the ops across
    the arrival window (the previous CP's duration, since ops accumulate
    while the previous CP drains): op [i] of [n] waits
    [(n-1-i)/n * arrival].  The clock is deterministic and integer-only on
    the per-op path.

    Samples land in log-linear {!Hdrhist}s keyed by (op kind x volume
    slot), sharded per domain: record is lock-free and allocation-free in
    steady state, the read side merges shards.

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

(** Cost constants of the modeled clock; field-for-field the subset of
    [Sim.Cost_model.t] the clock uses.  [Sim.Cost_model.latency_model]
    converts, and a test pins [default_model] to the sim's defaults. *)
type model = {
  cpu_base_us_per_op : float;
  metafile_page_cpu_us : float;
  metafile_page_write_us : float;
  cache_work_unit_us : float;
  alloc_candidate_us : float;
}

val default_model : model

type t

val create :
  ?model:model -> ?slo:Slo.t -> ?max_vols:int -> ?max_exemplars:int ->
  unit -> t
(** [max_vols] (default 16) bounds the per-volume keying; volumes beyond
    the limit share the last slot.  [max_exemplars] (default 32) bounds
    the exemplar ring. *)

val vol_slot : t -> uid:int -> name:string -> int
(** Dense slot for a volume uid, registering it (with a display name) on
    first sight.  Called from the CP path only — not thread-safe. *)

val vols : t -> (int * string) list
(** Registered (slot, name) pairs in first-seen order. *)

val record : t -> op:op -> vol:int -> int -> unit
(** [record t ~op ~vol ns] adds one sample into the calling domain's
    shard.  Steady state is allocation-free and lock-free. *)

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

val merged : ?op:op -> ?vol:int -> t -> Hdrhist.t
(** Fresh histogram merging every shard, optionally filtered to one op
    kind and/or one volume slot. *)

val quantiles_ms : ?op:op -> ?vol:int -> t -> float * float * float
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
