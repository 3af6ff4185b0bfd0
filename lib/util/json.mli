(** A minimal JSON reader/writer, and the one JSON writer of the
    program: every telemetry export ([Wafl_telemetry.Export]) builds a
    {!t} and prints it with {!to_string}, and its CSV and Prometheus
    renderings print their numbers with {!number}.  No external
    dependency, no streaming: documents here are small (tens of KiB).

    Output is compact (no whitespace between tokens).  Numbers all parse
    to [float]; the writer prints integers without an exponent and other
    values with 17 significant digits, so every number it emits survives
    the round-trip exactly. *)

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
(** Compact rendering (objects keep member order); a non-finite number
    prints as [null]. *)

val number : float -> string
(** How {!to_string} prints a finite number: an integer below 1e15 in
    magnitude without an exponent, anything else with 17 significant
    digits, so [float_of_string (number f) = f]. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)
