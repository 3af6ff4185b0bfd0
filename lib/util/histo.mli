(** Fixed-width-bin histograms over a bounded integer domain.

    Used both for measurement and as the counting half of the HBPS data
    structure (see {!Wafl_aacache.Hbps}), where values are AA scores in
    [\[0, max_value\]] and bins are 1k-wide score ranges. *)

type t

val create : max_value:int -> bin_width:int -> t
(** Histogram over values in [\[0, max_value\]] with bins of [bin_width].
    Both arguments must be positive.  The number of bins is
    [ceil((max_value + 1) / bin_width)]. *)

val bins : t -> int
(** Number of bins. *)

val bin_of_value : t -> int -> int
(** Bin index holding a value; values are clamped into the domain. *)

val bin_range : t -> int -> int * int
(** [bin_range t i] is the inclusive value range [(lo, hi)] covered by bin
    [i]. *)

val add : t -> int -> unit
(** Count one occurrence of a value. *)

val remove : t -> int -> unit
(** Remove one occurrence; the bin count must be positive. *)

val move : t -> from_value:int -> to_value:int -> unit
(** [move t ~from_value ~to_value] reclassifies one item; constant time, and
    a no-op when both values fall in the same bin. *)

val count : t -> int -> int
(** Count in bin [i]. *)

val total : t -> int
(** Sum of all bin counts. *)

val highest_nonempty : t -> int option
(** Index of the highest-value non-empty bin, if any. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f bin count] from the highest-value bin downward. *)
