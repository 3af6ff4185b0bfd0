(** A minimal JSON reader/writer — just enough to parse the exporter's
    own output (metrics, time series) back into a tree for round-trip
    tests.  No external dependency,
    no streaming: documents here are small (tens of KiB).

    Numbers all parse to [float]; the exporters print integers without an
    exponent and other values with 17 significant digits, so every number
    they emit survives the round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  The error
    string carries a character offset. *)

val parse_exn : string -> t
(** Raises [Failure] with the {!parse} error. *)

val to_string : t -> string
(** Compact rendering (objects keep member order). *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)
