(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through a seeded [t] so that every
    experiment is reproducible bit-for-bit.  The generator is xoshiro256**,
    seeded via splitmix64, following the reference implementations of
    Blackman & Vigna. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is fully determined by
    [seed]. *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, advancing [t].
    Use to hand independent streams to sub-components. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
