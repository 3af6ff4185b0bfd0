(** RAID-aware AA cache: an in-memory max-heap of all AAs of a RAID group,
    keyed by score (§3.3.1).

    The heap holds every AA (the memory is justified by the §4.1 win), and
    supports position-tracked key updates so the batched score changes of a
    CP can be applied and the heap rebalanced at the CP boundary.  AA ids
    must be dense in [\[0, n_aas)]. *)

type t

val create : n_aas:int -> t
(** Empty heap able to hold AAs [0 .. n_aas-1]. *)

val of_scores : int array -> t
(** Heapify all AAs from a score array (index = AA id) in O(n). *)

val size : t -> int
val mem : t -> int -> bool
(** Whether an AA is currently in the heap. *)

val insert : t -> aa:int -> score:int -> unit
(** Add an AA; it must not already be present. *)

val peek_best : t -> (int * int) option
(** Highest-score (aa, score) without removing, [None] when empty. *)

val best_score : t -> int option

val top_score : t -> int
(** Best score, or 0 when the heap is empty.  Unlike {!best_score} this
    never boxes an option — safe on allocation-free paths. *)

val extract_best : t -> (int * int) option
(** Remove and return the best entry. *)

val extract_best_filtered : t -> keep:(int -> bool) -> (int * int) option
(** Remove and return the best entry whose AA satisfies [keep] — the
    claim-aware pick of the write allocator's class rows (skip AAs
    another row has claimed without losing score order).  Entries rejected
    on the way are reinserted, so the heap afterwards holds exactly the
    original entries minus the returned one. *)

val remove : t -> aa:int -> int
(** Remove a specific AA, returning its score.  It must be present. *)

val score : t -> aa:int -> int
(** Current score of a present AA. *)

val update : t -> aa:int -> score:int -> unit
(** Change an AA's key and restore heap order (sift up or down). *)

val apply_update : t -> aa:int -> score:int -> unit
(** One CP-rebalance update: {!update} a present AA, {!insert} an absent
    one (covers the mount-time background fill). *)

val top_k : t -> int -> (int * int) list
(** The [k] best (aa, score) pairs in descending score order, without
    disturbing the heap — the TopAA snapshot (§3.4). *)

val check_invariant : t -> bool
(** Heap-order and position-index consistency (for tests). *)
