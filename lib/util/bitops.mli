(** Small bit-manipulation helpers used by the bitmap layer. *)

val popcount64 : int64 -> int
(** Number of set bits. *)

val ctz64 : int64 -> int
(** Index (0-based, from least-significant) of the lowest set bit.
    Returns 64 when the argument is zero. *)

val clz64 : int64 -> int
(** Leading-zero count; 64 when the argument is zero. *)

val ctz : int -> int
(** Trailing-zero count on a native (immediate, never-boxed) int —
    the hot-path variant the harvest kernels use so a scan allocates
    nothing.  Returns [Sys.int_size] when the argument is zero. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] for [n > 0]. False for non-positive values. *)

val ceil_div : int -> int -> int
(** Integer division rounding up; divisor must be positive. *)

val round_up : int -> int -> int
(** [round_up n m] is the smallest multiple of [m] that is [>= n]. *)

val round_down : int -> int -> int
(** Largest multiple of [m] that is [<= n]. *)
