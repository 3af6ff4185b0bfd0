(** Flash translation layer simulator for SSDs.

    Models the mechanism §3.2.2 describes: flash is written in whole erase
    blocks, so when the host (re)writes only part of the logical range
    covered by an erase block, the FTL must first relocate the still-live
    data of that erase block elsewhere, erase it, and then program the new
    data (Figure 4).  The ratio of pages physically programmed to pages the
    host wrote is the {e write amplification}; 1.0 is ideal.

    The simulator is erase-block-mapped with a bounded set of {e open}
    erase blocks (real drives expose a limited number of write streams):

    - writing into a closed erase block {e opens} it, paying the relocation
      of its live pages that the incoming batch does not overwrite, plus an
      erase.  Each erase block's valid (live) page count is kept as pages
      become live and die, so an open costs the batch's run, not a scan of
      the block;
    - subsequent writes into an open erase block are free appends, so a
      sequential pass over a region costs the same no matter how it is
      split across CP batches;
    - an erase block closes once a full block's worth of pages has been
      appended since it was opened, or when it is evicted (LRU) because too
      many blocks are open.

    Small AAs hurt exactly as the paper argues: each AA covers a fraction
    of an erase block, and by the time a neighbouring AA is picked the
    block has been evicted, so its live data is relocated again — whereas
    an erase-block-aligned AA rewrites whole blocks in one open/close
    cycle.  Overprovisioned spare capacity absorbs a fraction
    [overprovision / (1 + overprovision)] of the relocation traffic.

    {b Multi-stream placement.}  The drive can be created with several
    write {e streams} (SepBIT / multi-stream SSD style): the open-block
    budget is partitioned evenly across streams, each stream runs its own
    LRU over the blocks it opened, and {!write_batch} tags every batch
    with the stream it belongs to.  Writes segregated by expected lifetime
    then stop evicting each other's open blocks: hot rewrites churn their
    own small set while cold data streams sequentially in another.  Erases
    are also counted per erase block ({e wear}), which the AA scorer can
    fold in to steer allocation away from worn spans.

    Because WAFL allocates only free VBNs, host "overwrites" of an LBA occur
    when the write allocator reuses the VBN; WAFL communicates frees to the
    device as trims, which kill pages without relocation. *)

type t

type stats = {
  host_pages_written : int;
  device_pages_written : int;  (** host writes + relocations *)
  relocated_pages : int;
  erases : int;
  trimmed_pages : int;
}

val create :
  ?profile:Profile.ssd ->
  ?open_blocks:int ->
  ?streams:int ->
  logical_blocks:int ->
  unit ->
  t
(** A device exporting [logical_blocks] 4KiB pages.  [open_blocks]
    (default 8) is the number of simultaneously open erase blocks;
    [streams] (default 1) partitions that budget into independent
    write streams of [max 1 (open_blocks / streams)] blocks each. *)

val streams : t -> int
(** Number of write streams the device was created with. *)

val stream_capacity : t -> int
(** Open-erase-block budget of each stream. *)

val set_fault : t -> Wafl_fault.Fault.device option -> unit
(** Attach (or detach) a fault-injection handle.  With one attached,
    {!write_batch} consults it per page: failed pages never reach the
    flash, torn pages are programmed but do not become live. *)

val live_pages_in : t -> start:int -> len:int -> int
(** Pages in the logical range currently holding live data. *)

val is_open : t -> eb:int -> bool
(** Whether an erase block is currently open for appends.  Raises
    [Invalid_argument] for an erase block outside the device. *)

val stream_of_open : t -> eb:int -> int option
(** The stream that opened [eb], when it is open.  Raises
    [Invalid_argument] for an erase block outside the device. *)

val open_blocks_of_stream : t -> int -> int
(** Erase blocks currently open under the given stream's budget. *)

val write_batch : ?stream:int -> t -> int array -> pos:int -> len:int -> unit
(** Process one flush's host writes, the logical page numbers
    [pages.(pos .. pos+len-1)] ([pages] is only read), under the given
    stream (default 0).  Pages become live.  The CP passes each stream's
    pages sorted and duplicate-free (its one sort per range, the slice the
    RAID group also reads), which costs one linear check here; any other
    order is sorted, and duplicates are coalesced, with the same result.
    The batch is copied onto a reused scratch array and walked in
    erase-block runs in place, so large CP flushes do not allocate per
    batch.  Raises [Invalid_argument] for a page outside the device. *)

val trim : t -> int -> unit
(** Host free: the page is no longer live; no-op when already dead. *)

val trim_batch : t -> int array -> pos:int -> len:int -> int
(** {!trim} each of [pages.(pos .. pos+len-1)], in order; returns how
    many live pages it killed (the batch's [trimmed_pages]). *)

val stats : t -> stats
(** Drive totals: {!sum_stats} of every stream's {!stream_stats} with the
    drive's trims. *)

val sum_stats : stats array -> trimmed_pages:int -> stats
(** Field-wise sum of per-stream tallies (or of their deltas over one
    flush), with [trimmed_pages] as the trims. *)

val stream_stats : t -> int -> stats
(** Per-stream tallies: host/device/relocated pages and erases charged to
    batches written under that stream ([trimmed_pages] is always 0 —
    trims are not stream-attributed). *)

val write_amplification : t -> float
(** [device_pages_written / host_pages_written]; 1.0 when no host writes. *)

val stream_write_amplification : t -> int -> float

val wear_of_eb : t -> eb:int -> int
(** Cumulative erases of one erase block.  Raises [Invalid_argument] for
    an erase block outside the device. *)

val max_wear_in : t -> start:int -> len:int -> int
(** Highest per-erase-block wear over a logical page range (0 for an
    empty range). *)

val wear_spread : t -> int * int
(** [(min, max)] per-erase-block wear across the device. *)

val service_time_us : t -> stats_delta:stats -> float
(** Device time for a window of activity: programs + relocation reads +
    erases, per the profile. *)

val diff_stats : after:stats -> before:stats -> stats

val reset_stats : t -> unit
(** Zeroes the per-stream tallies and the trim count (wear is preserved —
    it is physical state, not a statistic). *)
