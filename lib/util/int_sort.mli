(** In-place, allocation-free sorting of an [int array] prefix.

    The CP sorts each range's placed blocks once, into a reused scratch
    array; the RAID group's flush accounting and the FTL's write batch
    then receive that slice already sorted and duplicate-free, and
    {!sort_uniq} accepts it after one linear pass.  [Array.sort] would
    need the whole array and [List.sort] a fresh list per flush. *)

val sort : ?pos:int -> int array -> len:int -> unit
(** Sort [a.(pos .. pos+len-1)] ascending ([pos] defaults to 0); the rest
    of [a] is untouched.  Raises [Invalid_argument] unless the slice lies
    inside [a]. *)

val sort_uniq : int array -> len:int -> int
(** {!sort} the prefix, then drop duplicates in place: returns [m], and
    [a.(0 .. m-1)] holds the distinct values ascending.  A prefix that is
    already strictly ascending is returned as is ([m = len]) after one
    linear check, with no sort. *)
