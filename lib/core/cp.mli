(** Consistency points: WAFL's atomic flush of accumulated changes (§2.1).

    A CP takes every block write staged since the previous CP, allocates a
    virtual VBN (in the owning FlexVol) and a physical VBN (in the
    aggregate) for each, frees the blocks the writes replace (COW), drives
    the device simulators with the resulting I/O, commits the delayed frees
    and bitmap-metafile pages, and finally applies the batched AA-score
    updates to the caches (§3.3). *)

type batch = {
  mutable vol : int array;
  mutable file : int array;
  mutable offset : int array;
  mutable len : int;
}
(** Staged writes, [0 .. len-1], in first-staging order: write [k] is
    block [offset.(k)] of file [file.(k)] in volume [vols.(vol.(k))] of
    the [vols] array {!run} is given.  {!Fs} keeps the arrays and reuses
    them across CPs; [run] only reads them.

    Precondition: each (vol, file, offset) appears at most once.
    {!Fs.stage_write} guarantees it by coalescing; {!run} rejects a batch
    that repeats a write with [Invalid_argument] (see
    {!Flexvol.place}). *)

type device_report = {
  range_index : int;
  media : string;
  blocks_written : int;
  chains : int;
  full_stripes : int;
  partial_stripes : int;
  tetrises : int;
  parity_writes : int;
  parity_reads : int;
  device_time_us : float;
  ssd_stats : Wafl_device.Ftl.stats option;      (** this CP's delta *)
  ssd_stream_stats : Wafl_device.Ftl.stats array;
      (** this CP's delta per FTL write stream ([[||]] for non-SSD) *)
  smr_random_checksum_writes : int;
  fault : Wafl_fault.Fault.io_stats option;
      (** this CP's fault/retry activity on the range's device; [None]
          when no fault plane is attached *)
}

type report = {
  ops : int;                   (** staged writes processed *)
  blocks_allocated : int;      (** PVBNs actually placed (= ops unless the
                                   aggregate ran out of space) *)
  pvbns_freed : int;
  vvbns_freed : int;
  agg_metafile_pages : int;
  vol_metafile_pages : int;
  devices : device_report list;
  device_time_us : float;      (** max over ranges: groups flush in parallel *)
  cache_work : int;            (** abstract cache maintenance units this CP *)
  alloc_candidates : int;      (** bitmap positions scanned to gather the
                                   CP's free VBNs — fewer per block when
                                   AAs are emptier (§2.5) *)
  fault_totals : Wafl_fault.Fault.io_stats option;
      (** summed fault activity across devices; [None] without a plane *)
  picks : int;                 (** AA picks across every cache this CP *)
  replenishes : int;           (** cache replenishes this CP *)
  hbps_score_error_max : float;
      (** worst HBPS score-error bound over the caches (§3.3) *)
  search_ns : int;             (** wall ns in the [cp.pick] + [cp.harvest]
                                   spans this CP; 0 without telemetry *)
  wall_ns : int;               (** CP wall ns up to this report; 0 without
                                   telemetry *)
}

val columns : Wafl_telemetry.Timeseries.column list
(** Schema of the per-CP row [run] appends to the installed telemetry
    instance's time series: each column is a projection of the {!report}
    (or of aggregate state read once per row — free-space runs, AA score
    deciles d1..d9, SSD write amplification and wear, scrub totals,
    modeled latency quantiles overall and for the first four volume
    slots) and carries a unit and a kind.  Only the two wall-clock
    columns, [search_ns_per_block] and [cp_wall_ns], are [Measured];
    every other cell is the same on every run of the same seed, with or
    without [--mmap]. *)

val run : ?temp:Temperature.t -> Write_alloc.t -> Flexvol.t array -> batch -> report
(** Execute one CP over the staged writes, one code path at any class
    count.  Writes are grouped by volume with a stable counting
    sort (volumes in first-appearance order), and every per-block list —
    placed PVBNs and their classes, freed PVBNs, each range's share of
    both — is a slice of a scratch array that every system in the
    process shares and every CP reuses, so a CP allocates O(volumes +
    ranges) words, not O(blocks).  Each class batch of a volume is
    placed by {!Flexvol.place} in three tight passes (file maps,
    container gather, then frees and attaches in write order), so the
    random reads of consecutive writes overlap.  The aggregate's delayed
    frees commit first, then each written volume's, then each other
    volume's that holds queued frees (a deleted snapshot's)
    ([cp.vol_free_commit] fires just before each), then each range
    flushes ([cp.device_flush] fires just before each), in range order:
    a crash at the second range's point leaves the first range flushed
    and the second not.

    Every write gets a class slot: with [temp] it is classified before
    placement by the lifespan of the version it overwrites; without it
    every write is class 0.  Physical blocks are allocated class by class
    from the matching {!Write_alloc} class row, and each placed block
    carries its class into the flush, where each class's batch goes to
    its own FTL write stream on SSD ranges.  With one class this is the
    plain unrouted CP.  With [temp], births are recorded and the
    temperature clock ticks once per CP.

    An exception that unwinds the CP (a {!Wafl_fault.Crash} point, a
    failed check) first closes every span the CP had open, so
    [Span.open_now] reads 0 after a crash. *)

val empty_report : report
