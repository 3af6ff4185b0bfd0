(** The aggregate: the physical WAFL file-system instance (§2.1).

    The physical VBN space is the concatenation of ranges, one per RAID
    group plus one per object-store span.  Each range carries its own AA
    topology (RAID-aware or RAID-agnostic), score array, AA cache and
    device simulator; the allocation bitmap (active map with delayed frees)
    is aggregate-wide.  One AA cache is built per range (§3.3). *)

type device_sim =
  | Hdd_sim of Wafl_device.Profile.hdd
  | Ssd_sim of Wafl_device.Ftl.t
  | Smr_sim of Wafl_device.Smr.t * Wafl_device.Azcs.tracker array
      (** one checksum tracker per data device *)
  | Object_sim of Wafl_device.Object_store.t

type range = {
  index : int;
  base : int;                         (** first aggregate PVBN of the range *)
  blocks : int;
  topology : Wafl_aa.Topology.t;      (** over range-local VBNs [0, blocks) *)
  geometry : Wafl_raid.Geometry.t option;  (** None for object ranges *)
  group : Wafl_raid.Group.t option;   (** RAID write accounting *)
  device : device_sim;
  scores : int array;                 (** per-AA free-block counts *)
  mutable cache : Wafl_aacache.Cache.t option;  (** None while disabled *)
  delta : Wafl_aa.Score.delta;        (** batched CP score changes *)
  media : Config.media option;        (** None for object ranges *)
  mutable fault : Wafl_fault.Fault.device option;
      (** fault-plane handle for this range's device; None = no faults *)
  mutable cache_epoch : int;
      (** validity stamp: the cache/scores are exact iff this equals the
          aggregate's rebuild epoch (see {!range_fresh}) *)
  owners : int Atomic.t array;
      (** per-AA claim slot: the claiming cursor/domain id, or -1 when
          unclaimed (see {!claim_aa}) *)
}

type t

val create : Config.t -> t
(** Builds the ranges and their caches from the config; its run
    ({!Config.run}) picks the size of the shared scan pool ({!pool}).
    When the run carries a fault spec, a fault plane is created from it
    and attached as by {!attach_faults}, and the spec's persisted-state
    injections are armed
    ({!Wafl_bitmap.Integrity.arm}). *)

val attach_faults : t -> Wafl_fault.Fault.t -> unit
(** Create one fault-plane device handle per range (in range-index order,
    so RNG substreams are stable) and thread it into the range's device
    sim: FTL page writes, SMR block writes, AZCS checksum writes and
    object-store PUTs consult it; HDD ranges consult it from the CP cost
    model.  The handle is also kept on [range.fault] for the write
    allocator's bad-range / offline probes. *)

val config : t -> Config.t

val pool : t -> Wafl_par.Par.t
(** The scan pool every stage of this system runs on — rebuilds, Iron
    scans, the scrubber's verification, the CP's commits and flushes,
    large harvests.  A run with [jobs = 1] gets {!Wafl_par.Par.serial},
    so the stages take the same path at any domain count. *)

val ranges : t -> range array
val total_blocks : t -> int
val activemap : t -> Wafl_bitmap.Activemap.t
val metafile : t -> Wafl_bitmap.Metafile.t

val range_of_pvbn : t -> int -> range
(** The range containing an aggregate PVBN. *)

val to_local : range -> int -> int
(** Aggregate PVBN to range-local VBN. *)

val to_global : range -> int -> int

val free_blocks : t -> int
val used_fraction : t -> float

val free_run_stats : t -> int * int
(** [(maximal free runs, largest run length)] over the whole physical VBN
    space — the fragmentation signal sampled into the per-CP time series
    (paper §4's cleaner-efficiency axis). *)

val allocate : t -> pvbn:int -> unit
(** Mark a PVBN allocated; records the score decrement in its range's
    delta. *)

val allocate_harvested : t -> range -> aa:int -> pvbn:int -> unit
(** Trusted {!allocate} for the write allocator's harvest rings: the
    caller names the PVBN's range and AA and guarantees the PVBN is
    free, skipping the range scan, the VBN->AA divisions, and the
    already-allocated re-check on the per-block hot path. *)

val queue_free : t -> pvbn:int -> unit
(** Queue a PVBN free for the next CP. *)

val commit_frees : t -> int * int list
(** Apply queued frees (noting score increments) and flush the aggregate
    bitmap metafile; returns (metafile pages written, freed PVBNs).  The
    freed list is what gets trimmed down to SSDs.  The {!pool}
    parallelises the bit-clear apply — see
    {!Wafl_bitmap.Activemap.commit}. *)

(** {2 Cache validity epochs (incremental mount rebuild)}

    A range's scores and cache are {e exact} iff its [cache_epoch] equals
    the aggregate's rebuild epoch.  A lazy mount ({!Mount.mount}
    [~lazy_rebuild:true]) bumps the epoch, leaving every range stale but
    seeded; {!Rebuild.touch_range} re-materializes a stale range on first
    touch.  All rebuild orchestration goes through {!Rebuild.request} —
    the per-range primitive below is its building block. *)

val invalidate_caches : t -> unit
(** Bump the rebuild epoch: every range becomes stale (its seeded cache
    stays installed and usable until first touch). *)

val rebuild_epoch : t -> int

val range_fresh : t -> range -> bool

val mark_range_fresh : t -> range -> unit

val rebuild_range : t -> range -> unit
(** Recompute one range's scores from the bitmap, rebuild its cache and
    stamp it fresh.  The per-AA rescoring runs as
    {!Wafl_par.Par.run_ranges} chunks on the {!pool}; every score slot is written exactly once with a
    pure function of the bitmap, so the score
    array — and the cache built from it — is bit-identical to a serial
    rebuild at any domain count.  Building block of {!Rebuild.request};
    callers use that API. *)

val disable_caches : t -> unit

val harvest_free_of_aa : t -> range -> int -> dst:int array -> words:int ref -> int
(** Fill [dst] (which must hold at least the AA's capacity) with the AA's
    free PVBNs in allocation order (stripe-major for RAID ranges,
    ascending otherwise), word-at-a-time, and return how many were
    written.  Adds the number of 32-bit bitmap words read to [words].
    The per-block loop performs no heap allocation — the §3.3
    harvest-cursor kernel.  (The PR-2 list-returning variant
    [free_vbns_of_aa] is gone; this caller-array form is the only
    harvest API.) *)

val harvest_free_of_aa_sharded :
  Wafl_par.Par.t ->
  t ->
  range ->
  int ->
  shards:int array array ->
  dst:int array ->
  words:int ref ->
  int
(** Pool-driven {!harvest_free_of_aa}: the AA's span is split into one
    32-aligned chunk per shard, each pool domain harvests its chunk into
    its own scratch ring, and the shards are concatenated into [dst] in
    chunk order — emission order, count and words-read accounting are
    identical to the serial harvest at any domain count.  Each shard
    must hold the AA's full capacity.  Falls back to the serial harvest
    when the span is too small to split. *)

val aa_score_now : t -> range -> int -> int
(** Recompute an AA's score from the bitmap (bypasses the cached array). *)

(** {2 Atomic AA claims (multi-writer allocation front-end)}

    An AA picked by any writer — the serial cursor or a parallel
    allocation shard — is {e claimed} with one compare-and-set on its
    owner slot, and stays owned by that writer until the CP boundary
    releases every claim.  One-owner-per-AA is the invariant that keeps
    the harvest kernels single-writer (two domains never consume, and so
    never allocate bits inside, the same AA concurrently). *)

val no_owner : int
(** The empty owner slot value (-1). *)

val claim_aa : range -> aa:int -> owner:int -> bool
(** Atomically claim the AA for [owner] (a small non-negative writer id);
    returns false when another writer already owns it.  Allocation-free
    (the slot holds an immediate int). *)
