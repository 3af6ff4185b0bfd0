(** A FlexVol: a virtualized WAFL instance inside the aggregate (§2.1).

    Data in a FlexVol has a virtual VBN (its offset in the volume's own
    block-number space) and a physical VBN (its location in the aggregate).
    Virtual VBN selection has no effect on physical layout; its only goal is
    colocation in the number space, to touch as few bitmap-metafile blocks
    as possible per CP (§2.5).  The volume therefore uses RAID-agnostic AAs
    and an HBPS cache (§3.3.2). *)

type t

val create : ?pool:Wafl_par.Par.t -> Config.vol_spec -> t
(** A volume and its bitmaps.  [pool] —
    its system's scan pool, {!Wafl_par.Par.serial} by default — runs the
    volume's free commits and rescans. *)

val uid : t -> int
(** Process-wide dense volume id, assigned at creation.  The write
    allocator indexes its per-volume cursor slots by it (O(1) lookup
    instead of an assoc-list walk). *)

val name : t -> string
val blocks : t -> int
val spec : t -> Config.vol_spec
val topology : t -> Wafl_aa.Topology.t
val activemap : t -> Wafl_bitmap.Activemap.t
val metafile : t -> Wafl_bitmap.Metafile.t
val scores : t -> int array
val cache : t -> Wafl_aacache.Cache.t option
val set_cache : t -> Wafl_aacache.Cache.t option -> unit
val delta : t -> Wafl_aa.Score.delta

val free_blocks : t -> int
val used_fraction : t -> float

val pvbn_of_vvbn : t -> int -> int option
(** Container-map lookup: physical location of a virtual block. *)

val container_pvbn : t -> int -> int
(** {!pvbn_of_vvbn} with [-1] for an unmapped VVBN: the CP's overwrite
    path reads it once per block without boxing an option. *)

val reserve_vvbn : t -> vvbn:int -> unit
(** Mark a VVBN allocated (and note the score decrement) at hand-out time,
    before its container entry exists.  Prevents the allocator from
    offering the same VVBN twice across AA re-picks. *)

val reserve_harvested : t -> aa:int -> vvbn:int -> unit
(** Trusted {!reserve_vvbn} for the write allocator's harvest rings: the
    caller names the VVBN's AA and guarantees it is free, skipping the
    VVBN->AA division and the already-allocated re-check. *)

val attach_reserved : t -> vvbn:int -> pvbn:int -> unit
(** Install the container entry for a previously reserved VVBN. *)

val release_reserved : t -> vvbn:int -> unit
(** A reserved VVBN that could not be placed (no physical space): queue it
    to be freed at the next commit. *)

val map_vvbn : t -> vvbn:int -> pvbn:int -> unit
(** [reserve_vvbn] + [attach_reserved] in one step (direct/test use). *)

val remap_vvbn : t -> vvbn:int -> pvbn:int -> int
(** Point a mapped VVBN at a new physical block (segment cleaning: the
    virtual block keeps its number, only its physical home moves).
    Returns the previous PVBN. *)

val queue_unmap : t -> vvbn:int -> unit
(** Queue the VVBN free for the next CP (COW: old block dies when the CP
    commits). Clears the container-map entry immediately; the VVBN itself
    stays unusable until the commit. *)

val commit_frees : t -> int
(** Apply queued frees and flush the volume's bitmap metafile; returns
    metafile pages written. *)

val invalidate_cache : t -> unit
(** Bump the volume's rebuild epoch: the cache/scores become stale (the
    seeded cache stays usable until {!Rebuild.touch_vol} re-materializes
    it). *)

val cache_fresh : t -> bool

val rebuild_cache : t -> unit
(** Full-scan score recomputation + fresh HBPS; stamps the cache fresh.
    The rescoring runs as {!Wafl_par.Par.run_ranges} chunks on the
    volume's pool; the scores — and the HBPS built from them — are bit-identical to a
    serial rebuild at any domain count.  Building block of
    {!Rebuild.request}; callers use that API. *)

val harvest_free_of_aa : t -> int -> dst:int array -> words:int ref -> int
(** Fill [dst] (sized to at least the AA capacity) with the AA's
    currently-free VVBNs, ascending, word-at-a-time; returns the count
    and adds bitmap words read to [words].  Allocation-free per block.
    (The PR-2 list-returning variant [free_vvbns_of_aa] is gone; this
    caller-array form is the only harvest API.) *)

(** {2 Snapshots}

    WAFL snapshots are free at creation (COW): a snapshot pins the current
    virtual-to-physical mappings, and blocks it shares with the active file
    system are not freed when overwritten.  Deleting a snapshot releases
    every block no other snapshot or the active map still references — a
    burst of random frees that §4.1.1 names as a source of the free-space
    nonuniformity the AA cache exploits. *)

val create_snapshot : t -> int
(** Pin every currently mapped VVBN; returns the snapshot id.  The
    virtual-to-physical translation stays in the shared container map, so
    segment cleaning can relocate physical blocks under snapshots. *)

val snapshots : t -> int list

val snapshot_holds : t -> vvbn:int -> bool
(** Whether any snapshot pins this virtual block. *)

val detach_vvbn : t -> vvbn:int -> unit
(** Mark a snapshot-held VVBN as no longer part of the active namespace
    ("zombie"); its container entry and allocation survive until the last
    snapshot pinning it is deleted (the overwrite path for shared
    blocks). *)

val delete_snapshot : t -> int -> (int * int) list
(** Remove a snapshot; returns the [(vvbn, pvbn)] pairs that are no longer
    referenced by the active map or any remaining snapshot.  The caller
    queues the frees (volume VVBNs and aggregate PVBNs) so they commit at
    the next CP.  Raises [Not_found] for an unknown id. *)

val snapshot_read : t -> snapshot:int -> vvbn:int -> int option
(** Physical location of a virtual block as of the snapshot. *)

(** {2 Files} *)

val write_file : t -> file:int -> offset:int -> vvbn:int -> int
(** Point file block [offset] at [vvbn]; returns the VVBN it previously
    pointed at (the block an overwrite frees), or [-1] for a fresh
    block, so the CP's per-block path boxes no option.  A file's block map
    is a dense array indexed by offset that grows by doubling, so offsets
    should be dense from 0 (as every workload writes them).  Raises
    [Invalid_argument] for a negative offset. *)

val read_file : t -> file:int -> offset:int -> int option
(** VVBN currently backing a file block; [None] for a hole or an offset
    past the end of the file.  Raises [Invalid_argument] for a negative
    offset. *)

val file_blocks : t -> file:int -> int
(** Blocks currently mapped in a file. *)

val files : t -> int list

(** {2 Namespace persistence} *)

type namespace
(** A volume's durable namespace: the container map and every file's block
    map, copied out of the live volume. *)

val export_namespace : t -> namespace
(** Capture the namespace a crash image carries so a remounted system can
    still translate file reads and Iron can cross-check container
    references. *)

val import_namespace : t -> namespace -> unit
(** Load a namespace captured by {!export_namespace} into a fresh volume.
    Raises [Invalid_argument] if it was captured from a volume of another
    size. *)
