(** The WAFL write allocator (§3.1).

    Per physical range, the allocator takes the emptiest AA from the
    range's cache (or a random / first-fit AA when the cache is disabled),
    gathers that AA's free VBNs in allocation order, and hands them out
    sequentially until the AA is exhausted, then takes the next AA.  Across
    RAID groups it writes everywhere to maximize bandwidth, but biases the
    per-CP share toward emptier groups and can skip a group whose best AA
    score is under the fragmentation threshold (§3.3.1, §4.2).

    AAs taken from a cache are remembered so the CP boundary can re-file
    them with their updated scores (a heap entry would otherwise be lost,
    and an untouched HBPS entry would never re-qualify).  Every Best_aa
    take also sets the AA's claim flag in its space ({!Space.t}
    [claimed]); the claim blocks re-picks within a CP, and with several
    temperature classes it keeps two class rows off the same AA. *)

type t

val create : Aggregate.t -> rng:Wafl_util.Rng.t -> vols:Flexvol.t array -> t
(** An allocator over the aggregate's ranges and the system's volumes;
    a volume is named by its position in [vols] from then on. *)

val aggregate : t -> Aggregate.t

val allocate_pvbns_into : ?cls:int -> t -> dst:int array -> int -> int
(** Allocate up to [n] physical blocks, spread over eligible ranges
    proportionally to their best-AA scores, writing them into
    [dst.(0 .. n-1)]; returns the count (fewer than [n] only when the
    aggregate runs out of allocatable space).  While the current AA's
    harvest ring lasts, the per-block loop allocates no heap words; AA
    refills amortize their small setup cost over a whole AA of blocks.
    (The PR-2 list-returning wrapper [allocate_pvbns] is gone; this
    caller-array form is the only allocation API.)

    [cls] (default 0, clamped into the configured class count) selects
    the temperature routing slot: each class runs its own cursor row —
    own rings, own taken AAs — over the shared per-AA claim flags, so
    within a CP no two classes ever fill the same AA.  With
    [temp_classes = 1] (the default config) there is a single row and
    behavior is exactly the unrouted allocator's.

    On a lazily mounted system, the first pick from a stale range
    materializes its exact scores and cache ({!Space.touch}) before any
    score is trusted. *)

val temp_classes : t -> int
(** Number of temperature routing slots ({!Config.stream_spec}
    [temp_classes] at creation). *)

val allocate_vvbns_into : t -> int -> dst:int array -> int -> int
(** [allocate_vvbns_into t v ~dst n] allocates up to [n] virtual blocks
    in the volume at position [v] of {!create}'s [vols], from its current AA
    onward: the same refill and ring-pop loop {!allocate_pvbns_into} runs
    on each range, over the volume's space, reserving each VVBN as it is
    handed out. *)

val cp_finish : t -> unit
(** CP boundary: apply every range's and volume's batched score delta,
    re-file taken AAs, rebalance caches.  Clears per-CP state but keeps
    partially-consumed AA queues (WAFL continues filling an AA across
    CPs).  With [temp_classes > 1] each class row also keeps its live
    ring's AA {e claimed} across the boundary and carries it in the taken
    list: the row resumes filling the same erase block next CP, and the
    held claim is what stops any other class from re-harvesting it.  With
    a positive {!Config.stream_spec} [wear_bias] and an SSD range, the
    scores filed into the pick cache are demoted by
    {!Wafl_aa.Score.wear_adjusted} — worn AAs sink in the Best-AA order
    while the exact free-count arrays stay untouched. *)

val aas_taken : t -> int
(** Cumulative AAs taken from caches (all ranges and volumes). *)

val score_sum_taken : t -> int
(** Sum of scores of taken AAs at take time — divided by {!aas_taken} this
    is the "average free space in chosen AAs" the paper traces (§4.1.1). *)

val phys_take_trace : t -> int * int
(** (AAs taken, score sum) for physical ranges only. *)

val virt_take_trace : t -> int * int
(** (AAs taken, score sum) for volumes only — the §4.1.2 trace. *)

val candidates_scanned : t -> int
(** Cumulative bitmap positions examined while gathering free VBNs from
    AAs.  An AA yields its free blocks but costs a scan of its whole span,
    so emptier AAs amortize the allocation path over more blocks — the
    §2.5/§4.1.2 mechanism behind the CPU-per-op reduction. *)

val words_scanned : t -> int
(** Cumulative 32-bit bitmap words actually read by the harvest kernels —
    the word-at-a-time cost behind {!candidates_scanned}'s per-bit
    accounting.  Also emitted as the [write_alloc.words_scanned] counter. *)

val vbns_harvested : t -> int
(** Cumulative free VBNs harvested into cursor rings.  Also emitted as the
    [write_alloc.vbns_harvested] counter; the per-refill ring fill level is
    traced as the [write_alloc.ring_high_water] gauge. *)

val reset_take_stats : t -> unit
(** Zero the taken-AA trace counters (e.g. after aging, before
    measurement). *)
