(** AA scores and their batched maintenance (§3.3).

    The score of an AA is the number of free blocks in it, computed from
    the bitmap metafiles.  Scores decrease as the allocator consumes VBNs
    and increase as VBNs are freed; both kinds of update are accumulated
    during a CP and applied in one batch at the CP boundary. *)

val score_of_aa : base:int -> Topology.t -> Wafl_bitmap.Metafile.t -> int -> int
(** Free blocks in AA [i] per the metafile; [base] is the metafile
    position of the topology's VBN 0 (a range's offset in the aggregate
    bitmap, 0 for a FlexVol). *)

val all_scores : Topology.t -> Wafl_bitmap.Metafile.t -> int array
(** Scores for every AA, by a linear walk of the bitmap (the expensive
    rebuild the TopAA metafile exists to avoid, §3.4). *)

(** {2 Wear-aware scoring} *)

val wear_quantum : int
(** Erases per wear bin (wpmfs-style binning). *)

val wear_adjusted : bias:int -> wear:int -> min_wear:int -> score:int -> int
(** Demote a cache score by [bias] units per full {!wear_quantum} bin the
    AA's wear sits above the device minimum.  Never drops a positive
    score below 1 (wear steers allocation, it must not hide free space),
    and is the identity at [bias <= 0].  Applies to cache-filed scores
    only — the free-count score arrays stay exact. *)

(** {2 Batched deltas} *)

type delta
(** Accumulates per-AA score changes during one CP. *)

val create_delta : Topology.t -> delta

val note_alloc : delta -> vbn:int -> unit
(** A VBN was allocated: its AA's score will drop by one. *)

val note_alloc_aa : delta -> aa:int -> unit
(** {!note_alloc} for callers that already know the VBN's AA (the
    write allocator's harvest rings hold whole-AA batches): skips the
    VBN->AA division on the per-block hot path. *)

val note_free : delta -> vbn:int -> unit
(** A VBN was freed: its AA's score will rise by one. *)

val is_empty : delta -> bool

val mem : delta -> aa:int -> bool
(** Whether the AA has a pending non-zero net change, i.e. whether the next
    {!apply} will emit an update for it.  O(1), allocation-free. *)

val fold : delta -> init:'a -> f:('a -> aa:int -> change:int -> 'a) -> 'a
(** Visit every AA with a non-zero net change. *)

val apply : delta -> int array -> f:(int -> int -> unit) -> unit
(** Apply to a score array in place, calling [f aa new_score] for each
    changed AA (the cache rebalance, {!Wafl_aacache.Cache.cp_update}),
    newest-touched AA first, then clear the accumulator.  Allocates
    nothing per AA. *)

val clear : delta -> unit
