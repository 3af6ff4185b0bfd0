(** A FlexVol: a virtualized WAFL instance inside the aggregate (§2.1).

    Data in a FlexVol has a virtual VBN (its offset in the volume's own
    block-number space) and a physical VBN (its location in the aggregate).
    Virtual VBN selection has no effect on physical layout; its only goal is
    colocation in the number space, to touch as few bitmap-metafile blocks
    as possible per CP (§2.5).  The volume is therefore one RAID-agnostic
    AA space ({!Space}) with an HBPS cache (§3.3.2). *)

type t

val create : Config.vol_spec -> t
(** A volume and its bitmaps. *)

val uid : t -> int
(** Process-wide dense volume id, assigned at creation.  The write
    allocator indexes its per-volume cursor slots by it (O(1) lookup
    instead of an assoc-list walk). *)

val name : t -> string
val blocks : t -> int

val space : t -> Space.t
(** The volume's AA space over its own activemap (base 0), labeled
    [Vol name]. *)

val activemap : t -> Wafl_bitmap.Activemap.t
val metafile : t -> Wafl_bitmap.Metafile.t

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
