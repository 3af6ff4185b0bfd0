(** Histogram-based partial sort (HBPS) — the RAID-agnostic AA cache
    (§3.3.2, Figure 5).

    Tracks millions of AA scores in bounded memory, the analog of two 4KiB
    pages:

    - a {e histogram page}: for every 1k-wide score range ("bin"), the exact
      count of AAs whose score falls in that range — maintained for {e all}
      AAs, always accurate;
    - a {e list page}: the AA ids from the best bins only, at most
      [capacity] (default 1000) of them, grouped by bin in descending bin
      order and {e unsorted within a bin} (sorting within a range was found
      to add nothing — the "partial" in the name).

    The write allocator takes the first list entry, which is guaranteed to
    be within one bin width of the true maximum score whenever the list is
    in sync with the histogram ([bin_width / max_score] = 1k/32k = 3.125%
    error).  Updates are constant-ish time: a histogram move plus, when the
    AA is listed and changes bin, a packed-array move that relocates one AA
    per bin between the two positions — the paper's "only one AA needs to
    be moved down from each bin".

    When consumption outpaces frees the list can run dry or stale; the
    {!replenish} scan (the paper's background bitmap-metafile walk) rebuilds
    it from current scores.  Call it at a CP boundary, after score updates
    are applied. *)

type t

val create :
  ?bin_width:int -> ?capacity:int -> max_score:int -> scores:int array -> unit -> t
(** Build from the initial score of every AA (AA ids are the array
    indices).  [max_score] is a full AA's capacity (32k by default sizing);
    [bin_width] defaults to [max_score / 32] (the paper's 1k-wide bins over
    a 32k score space), [capacity] to 1000. *)

val n_aas : t -> int
val bin_width : t -> int
val max_score : t -> int
val count : t -> int
(** Entries currently in the list page. *)

val score : t -> aa:int -> int
(** Current tracked score of any AA (listed or not). *)

val mem_list : t -> aa:int -> bool

val error_margin : t -> float
(** [bin_width / max_score]; 0.03125 with default parameters. *)

val pick_best : t -> (int * int) option
(** First list entry: an AA from the highest populated range in the list,
    with its score.  Does not modify the cache. *)

val top_score : t -> int
(** Best listed score, or 0 when the list page is empty; never boxes an
    option (allocation-free). *)

val take_best : t -> (int * int) option
(** Like {!pick_best} but removes the entry from the list page, so the next
    call yields a different AA.  The histogram is untouched — the AA's real
    score changes only when the CP's batched update arrives. *)

val take_best_filtered : t -> keep:(int -> bool) -> (int * int) option
(** {!take_best} restricted to AAs satisfying [keep] — the claim-aware
    pick of the write allocator's class rows.  Scans the list page in
    stored order (highest bin first), removes and returns the first kept
    entry; all other entries are untouched.  The one-bin-width error
    bound of {!take_best} still holds relative to the kept AAs. *)

val update : t -> aa:int -> score:int -> unit
(** Set an AA's score (CP-boundary batched path).  Adjusts the histogram;
    moves the AA between bins in the list, inserts it when it newly
    qualifies, or leaves it out when it does not. *)

val histogram_count : t -> bin:int -> int
val bins : t -> int
val highest_populated_bin : t -> int option
(** Per the histogram (all AAs). *)

val is_stale : t -> bool
(** The histogram knows of a better-populated bin than any bin present in
    the list — the list no longer holds the best AAs. *)

val needs_replenish : ?low_water:int -> t -> bool
(** Stale, or fewer than [low_water] (default capacity/4) entries. *)

val replenish : ?excluded:(int -> bool) -> t -> unit
(** Rebuild the list page from current scores, best bins first (the
    background metafile scan).  [excluded] filters AAs that must not be
    offered (e.g. checked out by the allocator). *)

val to_list : t -> (int * int) list
(** List-page entries in stored order, with scores. *)

val check_invariant : t -> bool
(** Structural invariants: segment/bin agreement, position index, histogram
    totals. *)

val check_complete : t -> bool
(** Stronger, holds at CP boundaries after replenish: every bin above the
    lowest listed bin has all its AAs listed. *)
