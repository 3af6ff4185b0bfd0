(** Flat bitmaps over a block-number space.

    The i-th bit tracks the state of the i-th block (§2.5): set = allocated,
    clear = free.  Backed by an off-heap {!Pagestore} and processed 64 bits
    at a time
    for the bulk operations (population counts and free-run searches) that
    the AA score computation and the mount-time cache rebuild perform. *)

type t

val create : bits:int -> unit -> t
(** All bits clear (all blocks free).  [bits >= 0].  The backing store is
    anonymous, or the next file of an installed map directory
    ({!Pagestore.create} [~mapped:true]). *)

val store : t -> Pagestore.t
(** The backing page store itself.  The integrity plane keys its sidecars
    on store identity; mutating the store through this handle bypasses
    the bitmap's bounds checks. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val set_range : t -> start:int -> len:int -> unit
(** Set [len] bits starting at [start]; the range must be in bounds. *)

val clear_range : t -> start:int -> len:int -> unit

val count_set : t -> int
(** Total set bits. *)

val count_set_in : t -> start:int -> len:int -> int
(** Set bits within a range. *)

val count_clear_in : t -> start:int -> len:int -> int
(** Clear (free) bits within a range — the AA score primitive (§3.3). *)

val find_first_clear : t -> from:int -> int option
(** Lowest clear bit at index [>= from], if any. *)

val find_first_set : t -> from:int -> int option

val free_extents : t -> start:int -> len:int -> Wafl_block.Extent.t list
(** Maximal runs of clear bits inside the range, in increasing order.
    These are the write chains available to the allocator (§2.4). *)

val fold_free_runs :
  t -> start:int -> len:int -> init:'a -> f:('a -> run_start:int -> run_len:int -> 'a) -> 'a
(** Fold over maximal clear runs inside the range without allocating. *)

val free_run_stats : t -> start:int -> len:int -> int * int
(** [(number of maximal free runs, length of the largest)] inside the
    range — the free-space fragmentation signal of the per-CP time
    series.  [(0, 0)] when no bit in the range is clear. *)

(** {2 Word-at-a-time free-bit harvest (the allocator hot path)}

    The allocator consumes every free VBN of an AA; materializing them by
    probing bits one at a time costs a bounds check and a byte load per
    {e block}.  These kernels walk the backing words instead, masking the
    ragged edges, so the cost is per 32/64-bit {e word}. *)

val iter_clear_words : t -> start:int -> len:int -> f:(base:int -> mask:int64 -> unit) -> unit
(** Visit each 64-bit backing word overlapping the range whose clear-bit
    mask (restricted to the range) is non-zero.  [mask] bit [i] set means
    bit [base + i] of the bitmap is clear and inside the range. *)

val fold_clear_in : t -> start:int -> len:int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over the indices of clear bits in the range, ascending, via
    {!iter_clear_words} + ctz — never per-bit [get]. *)

val clear_mask32 : t -> int -> int
(** 32-bit clear-bit mask at an arbitrary bit position: result bit [i] is
    set iff bit [pos + i] is in bounds and clear.  Works on immediate
    native ints only (an [int64] would be boxed), so calling it allocates
    nothing — the primitive under the zero-allocation harvest. *)

val harvest_clear_into : t -> start:int -> len:int -> offset:int -> dst:int array -> pos:int -> int
(** Append [offset + i] to [dst] (starting at index [pos]) for every clear
    bit [i] in the range, ascending; returns the new fill position.  The
    steady-state loop allocates no heap words per emitted index. *)

val copy : t -> t

val equal : t -> t -> bool

val blit : src:t -> dst:t -> unit
(** Copy the full bit state of [src] into [dst]; lengths must match. *)
