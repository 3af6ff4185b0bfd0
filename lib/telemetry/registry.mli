(** Metrics registry: named counters and gauges.

    Handles are cheap records meant to be resolved once (by name) and
    then updated directly on whatever path owns them.  Per-CP paths may
    instead go through the name-based helpers each time; the hot allocation
    path must not (see {!Tracer} for the per-pick instrument).  Metric
    names are dotted, e.g. ["cache.picks"].  Distributions live elsewhere:
    per-CP values in the time series, request latency in {!Hdrhist}. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Get or register the counter [name].  Raises [Invalid_argument] when
    the name is already registered as a gauge. *)

val gauge : t -> string -> gauge

(* --- counters: monotonically increasing ints --- *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0]. *)

val count : counter -> int

(* --- gauges: last-written float --- *)

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the maximum of the current and the offered value. *)

val value : gauge -> float

(* --- enumeration (registration order) --- *)

type metric = Counter of counter | Gauge of gauge

val name : metric -> string
val fold : t -> init:'a -> f:('a -> metric -> 'a) -> 'a
val find : t -> string -> metric option
val clear : t -> unit
(** Reset every metric to its zero state (handles stay valid). *)
