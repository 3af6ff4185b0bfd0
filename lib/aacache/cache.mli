(** Unified AA-cache interface over the two implementations (§3.3).

    A cache is either a RAID-aware max-heap over all AAs of a RAID group or
    a RAID-agnostic HBPS; {!backend} exposes the closed variant for the few
    callers (mount seeding, TopAA persistence) that need the concrete
    structure.  Besides dispatch, this layer accounts for everything the
    telemetry subsystem consumes — the abstract work each cache performs
    (comparisons/moves, backing the §4.1.2 observation that cache
    maintenance is a vanishing fraction of CPU) and, for an HBPS, an upper
    bound on the pick's score error versus the histogram's best populated
    bin (the §3.3 ≤ bin_width/max_score = 3.125% guarantee). *)

type t

type backend =
  | Raid_aware of Max_heap.t     (** max-heap over all AAs (index = AA id) *)
  | Raid_agnostic of Hbps.t      (** two-page histogram-based partial sort *)

type stats = {
  picks : int;
  updates : int;
  replenishes : int;
  work : int;  (** abstract unit operations: sift steps, bin moves, scan items *)
  entries : int;  (** AAs currently offerable (heap size / HBPS list count) *)
  score_error_last : float;
      (** upper bound on the last HBPS pick's score deficit versus the best
          populated histogram bin, as a fraction of [max_score]; 0.0 for a
          RAID-aware cache (its pick is exact) *)
  score_error_max : float;  (** worst [score_error_last] since the last reset *)
}

val make : ?space:int -> backend -> t
(** Wrap a backend (e.g. one seeded from a TopAA block, §3.4).  [space]
    labels the cache in telemetry events: physical ranges pass their range
    index, FlexVols the default [-1]. *)

val backend : t -> backend
val space : t -> int

val raid_aware : ?space:int -> scores:int array -> unit -> t
(** Fresh max-heap over all AAs. *)

val raid_agnostic :
  ?space:int ->
  ?bin_width:int ->
  ?capacity:int ->
  max_score:int ->
  scores:int array ->
  unit ->
  t

val take_best : t -> (int * int) option
(** Best (or near-best, for HBPS) AA, removed from the cache until its
    CP-boundary score update re-files it. *)

val take_best_filtered : t -> keep:(int -> bool) -> (int * int) option
(** {!take_best} restricted to AAs satisfying [keep] — the claim-aware
    pick of the write allocator's class rows: AAs another row has
    claimed are skipped without losing score order (heap entries rejected
    on the way are reinserted; HBPS scans the list page in stored
    order).  Accounting matches {!take_best}. *)

val peek_best_score : t -> int option
(** Best available score without consuming (used for the RAID-group
    fragmentation throttle, §3.3.1). *)

val best_score : t -> int
(** Like {!peek_best_score} but 0 when the cache is empty and never boxes
    an option — the write allocator's per-call range weighting stays
    allocation-free. *)

val cp_update : t -> ((int -> int -> unit) -> unit) -> unit
(** CP-boundary batch: [cp_update t refile] calls [refile file], which
    calls [file aa new_score] once per update, in batch order; then, for
    an HBPS, the list is replenished when dry or stale.  The updates are
    streamed, not collected, so the batch allocates nothing per AA. *)

val stats : t -> stats
val reset_stats : t -> unit
