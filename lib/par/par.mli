(** Domain-parallel scan engine.

    A fixed-size pool of worker domains executes indexed chunks of work.
    Chunks are handed out by an atomic counter, so any domain may run any
    chunk — but every chunk index runs exactly once and results land in
    preassigned slots (or are merged in ascending chunk order by the
    caller), which makes the output of a pool-driven scan bit-identical
    to the serial loop regardless of how many domains participated.

    Determinism contract: for [map], slot [i] of the result array holds
    [f i]; for [run], the caller must write chunk [i]'s results only to
    state owned by chunk [i] (disjoint array slices, per-chunk
    accumulators merged afterwards in index order).  Under that
    discipline the pool introduces no observable nondeterminism.

    Memory model: each chunk's non-atomic writes are published to the
    caller by the final decrement of an atomic pending-counter, which
    the caller reads before touching any result (release/acquire in the
    OCaml 5 memory model) — no additional synchronisation is needed for
    the per-chunk result slots.

    Pools are reentrancy-safe: a [run]/[map] issued while the pool is
    already driving work (e.g. from inside a worker's chunk function)
    falls back to an inline serial loop instead of deadlocking.

    Worker attribution: when a telemetry instance is installed at
    dispatch time, every parallel [run]/[map] times each participant's
    chunk execution and emits [par.tasks]/[par.chunks]/[par.busy_ns]/
    [par.idle_ns] counters plus [par.workers]/[par.busy_frac]/
    [par.imbalance] gauges (imbalance = max busy over mean busy; 1.0 is
    perfectly balanced).  With telemetry uninstalled the timing is
    skipped entirely, preserving the pool's allocation profile. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (the caller
    participates as the [jobs]-th).  [jobs] is clamped to at least 1;
    [jobs = 1] yields a poolless handle whose [run]/[map] are plain
    serial loops. *)

val jobs : t -> int
(** Degree of parallelism, including the calling domain. *)

val shutdown : t -> unit
(** Join and discard the worker domains.  Subsequent [run]/[map] on the
    handle degrade to serial.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, [shutdown] — even on exceptions. *)

val run : t -> chunks:int -> f:(int -> unit) -> unit
(** Execute [f 0 .. f (chunks - 1)], each exactly once, distributed over
    the pool's domains.  Blocks until every chunk finished.  If any
    chunks raised, re-raises the exception of the lowest-indexed failed
    chunk (matching what the serial loop would have raised first);
    remaining chunks still run to completion first. *)

val map : t -> chunks:int -> f:(int -> 'a) -> 'a array
(** Like [run], but collects [| f 0; ...; f (chunks - 1) |].  Slot order
    is by chunk index, never by completion order. *)

val chunk_bounds : total:int -> chunks:int -> (int * int) array
(** [chunk_bounds ~total ~chunks] splits the range [0 .. total - 1]
    into at most [chunks] contiguous [(start, len)] pieces of
    near-equal size.  Every piece is non-empty and the pieces cover
    the range exactly; returns [[||]] when [total <= 0].  Purely
    arithmetic — the same inputs always produce the same split. *)

val run_ranges : t -> min:int -> int -> f:(int -> int -> unit) -> unit
(** [run_ranges t ~min n ~f] covers [0 .. n - 1] with [(start, len)]
    chunks and runs [f start len] for each — the one path of every
    pool-chunked scan.  A one-domain handle, or [n < min] (too little
    work to pay for a dispatch), runs the single chunk [(0, n)] inline;
    otherwise the pool runs [jobs t * 4] near-equal chunks, as {!run}.
    Chunks that write only their own slots leave the same state at any
    domain count. *)

val map_ranges : t -> min:int -> int -> f:(int -> int -> 'a) -> 'a array
(** {!run_ranges} that collects [f start len] per chunk, in chunk order,
    as {!map} (chunk 0 runs on the caller).  Merging the results in
    chunk order reproduces the ascending serial loop. *)

(** {1 Shared pools}

    Pools are resources, not settings: a system's configuration says how
    many domains it uses, and the system takes a pool of that size from
    a process-wide cache, so building many systems spawns each pool's
    domains once. *)

val serial : t
(** The one-domain handle: no workers, [run]/[map] are plain loops. *)

val shared : jobs:int -> t
(** The cached pool with [jobs] domains, created on first use
    and shut down at exit; {!serial} when [jobs <= 1], so a serial run
    takes the same code path as a parallel one on a one-domain handle. *)
