(** An AA space: one block-number space cut into allocation areas, scored
    by free count and served by an AA cache (§3.2–3.4).

    Each aggregate range and each FlexVol is one space, and this module is
    the one implementation of everything the paper does to one: the
    per-AA free counts ([scores]) and their batched CP delta, the AA
    cache, first-touch freshness after a lazy mount, the exact rebuild,
    the word-at-a-time AA harvest, harvested allocation, and TopAA save
    and seed.

    Positions handed in and out ([vbn] arguments, harvested entries) are
    bitmap positions: a space covers [\[base, base + blocks)] of its
    activemap — the aggregate-wide one for a range, its own for a
    FlexVol (base 0).  Topology VBNs are space-local. *)

type label =
  | Range of int  (** aggregate range index *)
  | Vol of string  (** FlexVol name *)

type t = {
  label : label;
  topology : Wafl_aa.Topology.t;
  base : int;  (** bitmap position of the space's VBN 0 *)
  activemap : Wafl_bitmap.Activemap.t;
  policy : Config.allocation_policy;
      (** how the allocator picks the space's AAs; the space keeps an AA
          cache iff it is {!Config.Best_aa} *)
  scores : int array;  (** per-AA free-block counts *)
  delta : Wafl_aa.Score.delta;  (** batched CP score changes *)
  mutable cache : Wafl_aacache.Cache.t option;
      (** a max-heap on a RAID-aware topology, an HBPS on a RAID-agnostic
          one; [None] on a cacheless space and, after a deferred-scan
          mount, until first touch *)
  mutable stale : bool;
      (** set by a lazy mount: scores and cache are approximations until
          {!touch} rebuilds them *)
  claimed : Bytes.t;
      (** one claim flag per AA, nonzero while a class row of the write
          allocator holds it; cleared at the CP boundary *)
  unclaimed : int -> bool;
      (** whether an AA's claim flag is clear; built once, so the
          claim-aware cache take allocates no predicate per pick *)
}

val create :
  label:label ->
  base:int ->
  activemap:Wafl_bitmap.Activemap.t ->
  policy:Config.allocation_policy ->
  Wafl_aa.Topology.t ->
  t
(** An empty space: every AA scores its capacity, and a [Best_aa] space
    gets its cache built from those scores.  Whether a space has a cache
    is decided here, once. *)

val trace_id : t -> int
(** The telemetry label of the space's picks and cache: the range index,
    or -1 for a FlexVol. *)

val score_now : t -> int -> int
(** An AA's free count read from the bitmap (bypasses [scores]). *)

val best_score : t -> int
(** The cache's best score, or on a cacheless space the exact maximum of
    [scores]; 0 when nothing is offered.  Allocation-free. *)

val rebuild : t -> unit
(** Clear the delta, rescore every AA from the bitmap, rebuild the cache
    of a [Best_aa] space (a cacheless one keeps none) and clear [stale].
    Counts [aggregate.range_rebuilds] on a range. *)

val touch : t -> unit
(** First touch: a fresh space costs one field read; a stale one pays
    the metafile page reads of its span ([rebuild.lazy_ranges] /
    [rebuild.lazy_vols]) and a {!rebuild}. *)

val harvest : t -> int -> dst:int array -> words:int ref -> int
(** Fill [dst] (at least the AA's capacity) with the AA's free bitmap
    positions in allocation order — stripe-major on a RAID-aware
    topology, ascending otherwise — word-at-a-time, and return how many
    were written.  Adds the 32-bit bitmap words read to [words].  No heap
    allocation per block.  Raises [Invalid_argument] for an AA index out
    of bounds. *)

val allocate : t -> int -> unit
(** Mark a position allocated and note the score decrement. *)

val allocate_harvested : t -> aa:int -> int -> unit
(** {!allocate} for a position harvested from AA [aa] and known free:
    skips the already-allocated check and the VBN->AA division. *)

val note_free : t -> int -> unit
(** A committed free at a position: its AA's score rises at the next CP
    boundary. *)

(** {2 TopAA (§3.4)} *)

type topaa =
  | Topaa_heap of Wafl_bitmap.Pagestore.t  (** one block of best pairs *)
  | Topaa_hbps of Wafl_bitmap.Pagestore.t * Wafl_bitmap.Pagestore.t
      (** the two HBPS pages *)

val save_topaa : t -> topaa option
(** Persist the cache of a [Best_aa] space (one built from the current
    scores if a deferred-scan mount left it none yet); [None] on a
    cacheless space, which has no TopAA. *)

val topaa_pages : topaa -> int
(** 4 KiB pages a mount reads: 1 for a heap block, 2 for HBPS pages. *)

val seed : t -> topaa -> int * int
(** Mount seeding: install a cache seeded from TopAA pages the space's
    {!save_topaa} persisted.  Pages that
    fail their checksum, or whose seeds do not fit the space, take the
    fallback: read the space's metafile pages and {!rebuild}.  Returns
    [(seeds installed, fallback pages read)]. *)
