(** Exhaustive crash-point matrix: kill the system at every instrumented
    point inside the CP pipeline (and the segment cleaner), remount from
    the crash image, repair, and verify the recovery invariants.

    The matrix is enumerated programmatically: a Recording pass collects
    the dynamic sequence of {!Wafl_fault.Crash.point} sites the workload
    reaches, then the identical seeded workload is re-run once per site
    with the crasher armed there.  Each crashed run is snapshotted
    ({!Mount.snapshot} stands in for what the devices would hold), mounted,
    and repaired with {!Iron.Container_authority} (the namespace reached
    NVRAM, so it outranks a torn bitmap), after which three invariants
    must hold, both before and after the NVRAM-replay CP:

    - {!Iron.check} reports nothing;
    - no physical block is referenced by two virtual blocks;
    - every acknowledged operation (staged before the crash) reads back
      to an allocated physical block. *)

type violation = { point : string; index : int; what : string }

type result = {
  points : string list;     (** the enumerated dynamic site sequence *)
  runs : int;               (** workload executions: enumeration + one per point *)
  violations : violation list;  (** empty = every crash point recovered clean *)
}

val pp_violation : Format.formatter -> violation -> unit

val default_config : ?run:Config.run -> seed:int -> unit -> Config.t
(** A small two-RAID-group HDD system sized so the matrix stays fast. *)

val run :
  ?config:Config.t ->
  ?run:Config.run ->
  ?with_cleaner:bool ->
  ?lazy_rebuild:bool ->
  ?verify_mount:bool ->
  seed:int ->
  warmup_cps:int ->
  ops_per_cp:int ->
  unit ->
  result
(** Run the full matrix.  [with_cleaner] (default true) inserts a cleaner
    pass before the final CP so the cleaner's crash point is exercised.
    [lazy_rebuild] (default false) is forwarded to {!Mount.mount} for
    every post-crash remount: the remounts come up stale-but-seeded and
    the repair's Iron scan is the first touch that materializes exact
    caches range by range.
    [run] (ignored when [config] is given) is the run of the default
    config; every pass and every remount executes as it says — under its
    fault spec, scrubber and pools.
    [verify_mount] (default false) forwards [~verify:true] to every
    post-crash {!Mount.mount}, classifying the persisted pagestore bytes
    against their integrity sidecars before the image restore.  When an
    mmap directory is installed, each pass — the recording run and every
    armed run — executes in its own wiped [runN/] subdirectory of it, and
    the remount re-enters that subdirectory in a fresh epoch: the store
    sequence restarts so the remount maps the very files the crashed run
    persisted, and {!Wafl_bitmap.Integrity} reloads sidecars and
    superblock from disk, discarding seals that died with the crash.
    Runs with rot/lost fault specs should also set a scrub rate so damage
    injected during replay CPs is healed before the invariant checks.
    With [jobs > 1] the remounts, repairs and replay CPs all shard over
    the scan pool — the recorded point sequence and the verdicts are
    identical at any domain count. *)
