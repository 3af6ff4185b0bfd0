(** Per-CP time series: a fixed-capacity ring of float rows under a single
    column schema.

    One row is appended per consistency point (by [Cp.run], through
    {!Telemetry.sample}); when the ring is full the oldest rows are
    overwritten, so a long run keeps the most recent [capacity] CPs while
    {!appended} still counts the lifetime total.  Everything is stored as
    [float] — integer quantities round-trip exactly well past any realistic
    CP count — which keeps the schema uniform for the CSV/JSON exporters
    and the regression differ.

    Rows are appended at the CP tail and read by the exporters and the
    live reporter. *)

type kind =
  | Count  (** deterministic counts and ratios of counts *)
  | Modeled  (** cost-model outputs: device time, modeled latency *)
  | Measured  (** wall clock on the host running the simulator *)

val kind_name : kind -> string
(** ["count"], ["modeled"] or ["measured"]. *)

type column = { name : string; unit : string; kind : kind }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 4096 rows.  Raises [Invalid_argument] when it
    is not positive. *)

val set_columns : t -> column list -> unit
(** Fix the schema.  The first call wins; later calls must pass the same
    columns (raises [Invalid_argument] otherwise), so independent sample
    sites cannot silently interleave different schemas. *)

val schema : t -> column list
(** Empty until {!set_columns}. *)

val columns : t -> string list
(** The schema's column names. *)

val append : t -> float array -> unit
(** Append one row (copied).  Raises [Invalid_argument] when the width
    does not match the schema, or no schema is set. *)

val length : t -> int
(** Rows currently retained (<= capacity). *)

val appended : t -> int
(** Rows appended over the recorder's lifetime. *)

val get : t -> int -> float array
(** [get t i] is retained row [i], oldest first, as a fresh copy. *)

val rows : t -> float array list
(** Retained rows, oldest first, as fresh copies. *)

val last : t -> float array option
(** The newest retained row, if any. *)

val column_index : t -> string -> int option

val clear : t -> unit
(** Drop rows and the lifetime count; the schema is kept. *)
