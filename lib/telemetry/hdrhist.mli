(** Log-linear HDR-style histogram for latency values.

    Values are non-negative integers (nanoseconds by convention).  Buckets
    are exact for values below 64 and log-linear above: each power-of-two
    decade is split into 32 linear sub-buckets, bounding the relative
    quantile error at 1/32 (~3.1%).  Recording is allocation-free (see
    {!Latency}). *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] adds one sample of value [v] (clamped to [0] if negative).
    Zero minor-heap allocation. *)

val count : t -> int
(** Total samples recorded. *)

val sum : t -> int
(** Sum of all recorded values (exact, not bucket-quantized). *)

val max_value : t -> int
(** Largest value recorded; [0] when empty. *)

val min_value : t -> int
(** Smallest value recorded; [0] when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0,1]: an upper bound for the value at rank
    [ceil (q * count)], i.e. the upper bound of the bucket holding that
    rank, clamped to [max_value t].  [0] when empty.  The estimate is
    within one bucket width of the exact order statistic (relative error
    <= 1/32 for values >= 64). *)

val index_of : int -> int
(** Bucket index for a value (exposed for tests). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range covered by a bucket index. *)

val iter_nonempty : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Iterate non-empty buckets in increasing value order. *)
