(** Hierarchical phase spans: wall-clock timings for the named phases of a
    consistency point (and the other long scans), accumulated per phase
    kind.

    The kind set is closed — one constructor per instrumented phase — so a
    recorder is four preallocated [int] arrays indexed by kind, and
    [enter]/[exit] never allocate.  The static {!parent} relation
    recreates the nesting ([Pick] and [Device_flush] live under the
    per-CP root, [Bit_clear] under the activemap commit) without a
    runtime stack.

    The parent relation names where a kind is reported, not every span
    it runs inside: in a CP, [Pick] and [Harvest] run inside [Place],
    and [Tetris_write] inside [Device_flush].  A CP's disjoint phases are
    [Place], [Activemap_commit], [Device_flush], [Refile] and [Publish];
    the rest of the [Cp] span is unattributed.

    Callers normally go through {!Telemetry.span_enter} /
    {!Telemetry.span_exit}, which are single-branch no-ops when no
    telemetry instance is installed — the zero-allocation contract of the
    consume path is unaffected by instrumentation being compiled in. *)

type kind =
  | Cp  (** one whole consistency point ([Cp.run]) *)
  | Pick  (** AA selection for a refill ([Write_alloc.pick_aa]) *)
  | Harvest  (** bitmap walk filling a harvest ring *)
  | Tetris_write  (** RAID tetris/stripe accounting of a range flush *)
  | Device_flush  (** one range's device simulation *)
  | Activemap_commit  (** delayed-free commit + metafile flush *)
  | Bit_clear  (** the bit-clearing apply inside the activemap commit *)
  | Place  (** step 1 of [Cp.run]: allocate and place every staged write *)
  | Refile  (** step 4 of [Cp.run]: batched score refile and cache rebalance *)
  | Publish  (** the CP report's counters and time-series row *)
  | Mount_rebuild  (** full-scan or TopAA mount ([Mount.mount]) *)
  | Iron  (** consistency check / repair scans *)
  | Cleaner  (** segment-cleaning passes *)
  | Scrub  (** background pagestore-integrity verification between CPs *)

val all : kind list
(** Every kind, in rendering order (parents before children). *)

val name : kind -> string
(** Stable dotted name, e.g. ["cp.device_flush"]. *)

val parent : kind -> kind option
(** Static nesting: [None] for roots ([Cp], [Mount_rebuild], [Iron],
    [Cleaner], [Scrub]). *)

val depth : kind -> int
(** Number of ancestors (0 for roots). *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds ([CLOCK_MONOTONIC], through
    [bechamel.monotonic_clock]); the default clock of {!create}. *)

type t

val create : ?clock:(unit -> int) -> unit -> t
(** [clock] returns nanoseconds; tests inject a deterministic one. *)

val enter : t -> kind -> unit
val exit : t -> kind -> unit
(** Close the open span of that kind; a stray [exit] without a matching
    [enter] is ignored.  At most one span per kind may be open — phase
    code upholds this by construction. *)

val count : t -> kind -> int
(** Completed spans of this kind. *)

val total_ns : t -> kind -> int
(** Wall nanoseconds accumulated over completed spans of this kind.
    Spans of one kind never overlap, so this is wall time actually spent
    in the phase: a CP's disjoint phases sum to at most its [Cp] total. *)

val open_now : t -> kind -> int
(** Spans of this kind currently open — the live "current phase" signal. *)

val clear : t -> unit
