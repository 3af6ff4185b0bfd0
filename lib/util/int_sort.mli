(** In-place, allocation-free sorting of an [int array] prefix.

    The CP's per-flush staging (the FTL's write batch, the RAID group's
    flush accounting) sorts a reused scratch array; [Array.sort] would
    need the whole array and [List.sort] a fresh list per flush. *)

val sort : int array -> len:int -> unit
(** Sort [a.(0 .. len-1)] ascending; the rest of [a] is untouched.
    Raises [Invalid_argument] unless [0 <= len <= Array.length a]. *)

val sort_uniq : int array -> len:int -> int
(** {!sort} the prefix, then drop duplicates in place: returns [m], and
    [a.(0 .. m-1)] holds the distinct values ascending. *)
