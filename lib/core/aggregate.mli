(** The aggregate: the physical WAFL file-system instance (§2.1).

    The physical VBN space is the concatenation of ranges, one per RAID
    group plus one per object-store span.  Each range carries its own
    device simulator and one AA space ({!Space}: a RAID-aware or
    RAID-agnostic topology, its scores and its AA cache, §3.3); the
    allocation bitmap (active map with delayed frees) is aggregate-wide. *)

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
  media : Config.media option;        (** None for object ranges *)
  mutable fault : Wafl_fault.Fault.device option;
      (** fault-plane handle for this range's device; None = no faults *)
  space : Space.t;
      (** the range's AA space over [\[base, base + blocks)] of the
          aggregate activemap, labeled [Range index]: scores, delta,
          cache, staleness and claim flags *)
}

type t

val create : Config.t -> t
(** Builds the ranges and their spaces from the config.
    When the run carries a fault spec, a fault plane is created from it,
    one device handle per range (in range-index order, so RNG substreams
    are stable) is threaded into the range's device sim and kept on
    [range.fault], and the spec's persisted-state injections are armed
    ({!Wafl_bitmap.Integrity.arm}). *)

val config : t -> Config.t

val ranges : t -> range array
val total_blocks : t -> int
val activemap : t -> Wafl_bitmap.Activemap.t
val metafile : t -> Wafl_bitmap.Metafile.t

val range_of_pvbn : t -> int -> range
(** The range containing an aggregate PVBN. *)

val ranges_of_pages : t -> int list -> range list
(** The ranges, in index order, whose PVBNs any of these integrity pages
    ({!Wafl_bitmap.Integrity.page_size} bytes) of the aggregate activemap
    store covers — the ranges a damaged page quarantines. *)

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

val queue_free : t -> pvbn:int -> unit
(** Queue a PVBN free for the next CP. *)

val commit_frees : t -> Wafl_bitmap.Activemap.commit_result
(** Apply queued frees (noting score increments) and flush the aggregate
    bitmap metafile; returns the freed count and metafile pages written.
    The freed PVBNs, which get trimmed down to SSDs, are the slice
    [(Activemap.freed (activemap t)).(0 .. freed-1)]. *)
