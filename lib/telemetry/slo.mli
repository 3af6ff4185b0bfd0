(** Sliding-window latency objectives with multi-window burn rates.

    An objective says "[target] of ops complete under [threshold_ms]".  The
    burn rate over a window is the observed violation fraction divided by
    the allowed fraction [1 - target] (rounded to 12 decimal places, so a
    decimal target's burns are exact): burn 1.0 means the error budget is
    being consumed exactly as fast as it accrues, >1.0 means faster.  Two
    windows are kept per objective — a fast one (default 12 CPs) that
    reacts to incidents and a slow one (default 120 CPs) that filters
    transients — and a breach is declared only when {e both} exceed 1.0,
    the standard multi-window alerting rule. *)

type objective = private {
  name : string;
  threshold_ms : float;
  target : float; (* fraction of ops that must land under threshold *)
}

val objective :
  name:string -> threshold_ms:float -> target:float ->
  (objective, string) result

val objective_of_string : string -> (objective, string) result
(** Parses ["NAME:MS:TARGET"], e.g. ["writes:5:0.99"].  Returns a
    human-actionable error for malformed specs (used by the CLI conv). *)

val objective_to_string : objective -> string
(** Round-trips through {!objective_of_string}. *)

val exact_float : float -> string
(** The shortest of 15, 16 or 17 significant digits that parses back to
    the same float: [0.99] prints as ["0.99"], and no value loses digits
    on a reprint.  The number format of the spec printers
    ({!objective_to_string} and the fault-spec printer). *)

type t

val create : ?fast_window:int -> ?slow_window:int -> objective list -> t
(** Windows are counted in CPs.  Raises [Invalid_argument] on an empty
    objective list, a repeated objective name (its gauges and counters
    would collide) or non-positive windows. *)

val thresholds_ns : t -> int array
(** Violation thresholds in ns, in objective order (for the record loop). *)

type report = {
  r_name : string;
  r_threshold_ms : float;
  r_target : float;
  r_burn_fast : float;
  r_burn_slow : float;
  r_breach : bool;       (* both windows burning > 1.0 *)
  r_violations : int;    (* violations in the CP just ticked *)
  r_window_ops : int;    (* ops in the slow window *)
  r_window_violations : int;
}

val cp_tick : t -> ops:int -> violations:int array -> report list
(** Advance both windows by one CP.  [violations.(i)] is the number of ops
    in this CP whose latency exceeded objective [i]'s threshold. *)
