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
    take also claims the AA in its space's atomic per-AA owner word
    ({!Space.t} [owners]); the claim blocks re-picks within a CP and is
    what lets multiple domains allocate concurrently (below) without two
    writers ever touching the same AA between CPs.

    {b Concurrent front-end.}  When the run asks for more than one
    allocation domain ({!Config.run} [alloc_domains]), the allocator takes
    an allocation pool of that size (apart from the scan pool) and large
    [allocate_pvbns_into] calls fan out
    over per-domain shards ({!Alloc_shard}): each domain pops from its own
    lock-free harvest ring, claims fresh AAs through the shared
    (mutex-serialised) cache pick path, steals byte-aligned ring suffixes
    from other shards when it runs dry, and accumulates score deltas and
    touched metafile pages privately; a serial epilogue merges everything
    back in shard order, so the committed state is independent of the
    window's interleaving.  The per-block consume loop allocates zero
    minor-heap words per domain. *)

type t

type par_slot_stats = {
  ps_allocated : int;   (** blocks this shard handed out in the last window *)
  ps_steals : int;      (** successful ring steals by this shard *)
  ps_high_water : int;  (** largest ring fill this shard published *)
  ps_minor_words : int; (** minor-heap words inside its pop-consume loops *)
}

val create : Aggregate.t -> rng:Wafl_util.Rng.t -> t

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
    own rings, own taken AAs — over the shared per-AA claim words, so
    within a CP no two classes ever fill the same AA.  With
    [temp_classes = 1] (the default config) there is a single row and
    behavior is exactly the unrouted allocator's.

    On a lazily mounted system, the first pick from a stale range
    materializes its exact scores and cache ({!Space.touch}) before any
    score is trusted. *)

val temp_classes : t -> int
(** Number of temperature routing slots ({!Config.stream_spec}
    [temp_classes] at creation). *)

val allocate_vvbns_into : t -> Flexvol.t -> dst:int array -> int -> int
(** Allocate up to [n] virtual blocks in a volume, from its current AA
    onward: the same refill and ring-pop loop {!allocate_pvbns_into} runs
    on each range, over the volume's space, reserving each VVBN as it is
    handed out. *)

val cp_finish : t -> unit
(** CP boundary: apply every range's and volume's batched score delta,
    re-file taken AAs, rebalance caches.  Clears per-CP state but keeps
    partially-consumed AA queues (WAFL continues filling an AA across
    CPs) — except after a parallel window, where surviving rings are
    dropped (their AAs lose their claims at this boundary, so another
    shard could re-harvest the blocks they hold).  With
    [temp_classes > 1] each class row instead keeps its live ring's AA
    {e claimed} across the boundary and carries it in the taken list:
    the row resumes filling the same erase block next CP, and the held
    claim is what stops any other class from re-harvesting it.  With a positive {!Config.stream_spec} [wear_bias] and an
    SSD range, the scores filed into the pick cache are demoted by
    {!Wafl_aa.Score.wear_adjusted} — worn AAs sink in the Best-AA order
    while the exact free-count arrays stay untouched. *)

val register_vol : t -> Flexvol.t -> unit
(** Track a volume so {!cp_finish} updates its cache too. *)

(** {2 Concurrent allocation front-end} *)

val parallel_capable : t -> bool
(** Whether every AA extent of every range is bitmap-byte aligned — the
    static precondition for unsynchronised multi-domain bitmap writes.
    When false, {!allocate_pvbns_into} stays serial regardless of the
    allocation pool. *)

val prepare_par : t -> jobs:int -> unit
(** Materialize [jobs] shards up front (e.g. so {!queue_free_par} can be
    used before any parallel allocation ran). *)

val queue_free_par : t -> slot:int -> pvbn:int -> unit
(** Constant-time concurrent free into slot's private queue; requires the
    slot's shard to exist ({!prepare_par}).  Queued frees take effect when
    {!drain_queued_frees} routes them into the aggregate's validated free
    queue. *)

val drain_queued_frees : t -> int
(** Serially (in shard order) move every queued concurrent free into
    {!Aggregate.queue_free}; returns the count.  Run before the CP commit
    ({!Cp.run} does). *)

val last_par_stats : t -> par_slot_stats array
(** Per-shard stats of the most recent parallel window ([[||]] before the
    first one). *)

val claim_conflicts : t -> int
(** Cumulative lost claim CAS races (structurally 0 while picks are
    serialised by the pick mutex; also emitted as the
    [write_alloc.claim_conflicts] counter). *)

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
