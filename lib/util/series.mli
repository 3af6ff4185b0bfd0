(** Named (x, y) data series, as printed for each reproduced figure. *)

type point = { x : float; y : float }

type t = { name : string; points : point list }

val make : string -> (float * float) list -> t

val peak_y : t -> float
(** Largest y value; the series must be non-empty. *)

val max_x : t -> float
(** Largest x value; the series must be non-empty. *)

val y_at_last : t -> float
(** y of the final point (series are built in sweep order). *)

val interpolate : t -> float -> float option
(** [interpolate t x] linearly interpolates y at [x]; [None] outside the
    x-range.  Points must be in increasing-x order. *)

val print_all : header:string -> t list -> unit
(** Print several series under a header as a combined table to stdout. *)
