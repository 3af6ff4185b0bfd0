(** Low-overhead structured event tracer: a bounded ring buffer of typed
    allocator events.

    Every emitter takes unboxed scalar arguments and checks {!enabled}
    before constructing the event, so a disabled tracer costs a branch and
    zero allocations on the hot path (asserted by the test suite).  When
    the ring is full the oldest events are overwritten; {!emitted} keeps
    the lifetime count.

    [space] identifies the allocation space an event concerns: physical
    ranges use their aggregate range index (>= 0), FlexVols use [-1]. *)

type event =
  | Cp_begin of { cp : int }
  | Aa_pick of { cp : int; space : int; aa : int; score : int }
  | Cache_replenish of { cp : int; space : int; listed : int }
  | Tetris_write of {
      cp : int;
      space : int;
      tetrises : int;
      full_stripes : int;
      partial_stripes : int;
    }
  | Cleaner_pass of { cp : int; aas : int; relocated : int; reclaimed : int }
  | Fault_inject of {
      cp : int;
      space : int;
      transients : int;
      torn : int;
      failed : int;
      spikes : int;
    }  (** injected faults observed by one device during one CP flush *)
  | Io_retry of { cp : int; space : int; retries : int; ok : int }
      (** retry activity (attempts / bursts outlived) for one device, one CP *)
  | Slo_violation of {
      cp : int;
      slo : string;
      burn_fast : float;
      burn_slow : float;
      violations : int;
    }
      (** an SLO breached (both burn windows over 1.0) at this CP boundary *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] defaults to 4096 events; [enabled] to [false]. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emitted : t -> int
(** Events emitted over the tracer's lifetime (retained or overwritten). *)

val length : t -> int
(** Events currently retained (<= capacity). *)

val current_cp : t -> int

val to_list : t -> event list
(** Retained events, oldest first. *)

(* --- emitters (no-ops when disabled) --- *)

val cp_begin : t -> unit
(** Advances the CP stamp carried by subsequent events.  The stamp advances
    even when disabled, so enabling mid-run yields correct CP numbers. *)

val aa_pick : t -> space:int -> aa:int -> score:int -> unit
val cache_replenish : t -> space:int -> listed:int -> unit

val tetris_write :
  t -> space:int -> tetrises:int -> full_stripes:int -> partial_stripes:int -> unit

val cleaner_pass : t -> aas:int -> relocated:int -> reclaimed:int -> unit

val fault_inject :
  t -> space:int -> transients:int -> torn:int -> failed:int -> spikes:int -> unit

val io_retry : t -> space:int -> retries:int -> ok:int -> unit

val slo_violation :
  t -> slo:string -> burn_fast:float -> burn_slow:float -> violations:int -> unit
(** Unlike the other emitters this takes a string (the objective name);
    it fires at most once per (objective, CP) at the CP boundary, never
    on a hot path. *)

(* --- rendering --- *)

val event_name : event -> string
val event_cp : event -> int
