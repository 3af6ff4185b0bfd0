(** A FlexVol: a virtualized WAFL instance inside the aggregate (§2.1).

    Data in a FlexVol has a virtual VBN (its offset in the volume's own
    block-number space) and a physical VBN (its location in the aggregate).
    Virtual VBN selection has no effect on physical layout; its only goal is
    colocation in the number space, to touch as few bitmap-metafile blocks
    as possible per CP (§2.5).  The volume is therefore one RAID-agnostic
    AA space ({!Space}) with an HBPS cache (§3.3.2).

    A CP writes into the volume through one entry point, {!place}: it
    points file blocks at their new VVBNs, attaches each VVBN to its PVBN
    and retires the blocks the writes replace, in three tight passes over
    a class batch so that the random file-map and container reads of
    consecutive writes overlap. *)

type t

val create : Config.vol_spec -> t
(** A volume and its bitmaps. *)

val uid : t -> int
(** Process-wide volume id, assigned at creation: the volume's identity
    across systems, which keys its latency cells and temperature state. *)

val name : t -> string
val blocks : t -> int

val space : t -> Space.t
(** The volume's AA space over its own activemap (base 0), labeled
    [Vol name]. *)

val activemap : t -> Wafl_bitmap.Activemap.t
val metafile : t -> Wafl_bitmap.Metafile.t

val free_blocks : t -> int

val pvbn_of_vvbn : t -> int -> int option
(** Container-map lookup: physical location of a virtual block. *)

val reserve_vvbn : t -> vvbn:int -> unit
(** Mark a VVBN allocated (and note the score decrement) at hand-out time,
    before its container entry exists.  Prevents the allocator from
    offering the same VVBN twice across AA re-picks. *)

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
    segment cleaning can relocate physical blocks under snapshots.  The
    first snapshot allocates the block map, one word per VVBN; a volume
    that never snapshots keeps none.  A word holds a zombie bit and one
    bit per snapshot, so [Invalid_argument] is raised when 62 snapshots
    are already live. *)

val snapshots : t -> int list

val delete_snapshot : t -> int -> (int * int) list
(** Remove a snapshot; returns the [(vvbn, pvbn)] pairs that are no longer
    referenced by the active map or any remaining snapshot, in ascending
    VVBN order.  The caller
    queues the frees (volume VVBNs and aggregate PVBNs) so they commit at
    the next CP.  Raises [Not_found] for an unknown id. *)

val snapshot_read : t -> snapshot:int -> vvbn:int -> int option
(** Physical location of a virtual block as of the snapshot. *)

(** {2 Files} *)

val write_file : t -> file:int -> offset:int -> vvbn:int -> int
(** Point file block [offset] at [vvbn]; returns the VVBN it previously
    pointed at (the block an overwrite frees), or [-1] for a fresh block.
    A file's block map is a dense array indexed by offset that grows by
    doubling, so offsets should be dense from 0 (as every workload writes
    them).  The file table is a dense array indexed by file id that
    grows the same way, so file ids should be small.  Raises
    [Invalid_argument] for a negative file id or offset. *)

val place :
  t ->
  Aggregate.t ->
  ?temp:Temperature.t ->
  files:int array ->
  offsets:int array ->
  vvbns:int array ->
  pvbns:int array ->
  old_vvbns:int array ->
  old_pvbns:int array ->
  int ->
  int * int
(** [place vol aggregate ~files ~offsets ~vvbns ~pvbns ~old_vvbns
    ~old_pvbns n] places a CP's [n] writes to the volume: write [i] points
    block [offsets.(i)] of file [files.(i)] at the reserved VVBN
    [vvbns.(i)], whose container entry becomes [pvbns.(i)].  An overwrite's
    replaced block leaves the active map: if a snapshot pins it, it
    becomes a zombie whose container entry and allocation survive until
    the last such snapshot is deleted; otherwise its PVBN's aggregate free
    and its VVBN's volume free are queued for the next commit and its
    container entry is cleared.  With [temp], each new VVBN's birth is
    noted.  Returns [(fresh, freed)]: writes that replaced nothing, and
    overwrites whose old block was queued for freeing.

    Three passes, so the random reads of consecutive writes overlap
    instead of waiting on each other in one long loop body: (A) every
    file-map write, gathering the replaced VVBN into [old_vvbns], with
    one inode lookup per run of writes to the same file; (B) each
    replaced VVBN's container entry into [old_pvbns]; (C) the frees and
    attaches, in write order, which is the order of every queued free
    and every birth.  The two scratch arrays hold at least [n] slots.

    The writes must name distinct file blocks, as a staged batch does
    ({!Fs.stage_write} coalesces).  Raises [Invalid_argument] for a
    negative file id or offset, for a VVBN that is not reserved or already mapped,
    and when a replaced VVBN no longer maps the PVBN gathered for it,
    which a repeated file block causes. *)

val read_file : t -> file:int -> offset:int -> int option
(** VVBN currently backing a file block; [None] for a hole or an offset
    past the end of the file.  Raises [Invalid_argument] for a negative
    file id or offset. *)

val file_blocks : t -> file:int -> int
(** Blocks currently mapped in a file. *)

(** {2 Namespace persistence} *)

type namespace
(** A volume's durable namespace, copied out of the live volume as flat
    arrays: the container map, every file's block map (trimmed to its
    last mapped offset), the snapshot block map, the slot-to-snapshot-id
    table and the next snapshot id. *)

val export_namespace : t -> namespace
(** Capture the namespace a crash image carries so a remounted system can
    still translate file reads, read and delete its snapshots, and let
    Iron cross-check container references. *)

val import_namespace : t -> namespace -> unit
(** Load a namespace captured by {!export_namespace} into a fresh volume,
    without aliasing it.  Raises [Invalid_argument] if it was captured
    from a volume of another size. *)
