(** Active map with delayed-free batching.

    In a COW file system an overwrite frees the block it replaces, but the
    free must not take effect until the consistency point that commits the
    new image is durable.  WAFL therefore queues frees and applies them in
    batch at the CP boundary (§3.3); the same batching is what lets AA score
    increments be applied once per CP instead of per operation.  This module
    wraps a {!Metafile} with that protocol. *)

type t

type commit_result = {
  freed : int;            (** VBNs whose bits were cleared by this commit:
                              [(freed t).(0 .. freed-1)], in queue order *)
  pages_written : int;    (** metafile pages flushed *)
}

val create : ?page_bits:int -> blocks:int -> unit -> t

val metafile : t -> Metafile.t
(** The underlying map; reads through it see allocations immediately and
    queued frees not yet. *)

val is_allocated : t -> int -> bool
(** Current on-media state (queued frees still count as allocated). *)

val allocate : t -> int -> unit
(** Mark a VBN allocated immediately.  The VBN must be free and must not
    have a pending free (a freshly freed block is not reusable until the
    freeing CP commits). *)

val allocate_harvested : t -> int -> unit
(** Trusted {!allocate} for the write-allocation hot path: the caller
    guarantees the VBN is free, which (since only allocated VBNs can be
    queued) also rules out a pending free; both checks are skipped. *)

val queue_free : t -> int -> unit
(** Queue a VBN to be freed at the next commit.  It must currently be
    allocated; queuing the same VBN twice is an error. *)

val pending_free_count : t -> int

val has_pending_free : t -> int -> bool

val commit : t -> commit_result
(** Apply all queued frees in queue order, flush the metafile, and
    return the count.  One pass: splitting the bit clears over several
    threads measured slower than this loop (DESIGN.md §9).  The queue is
    one growable array reused across commits, so a commit allocates
    nothing per VBN. *)

val freed : t -> int array
(** The queue array: after {!commit} returned [{ freed = n; _ }], its
    first [n] slots are the committed VBNs in queue order.  Read-only,
    and valid until the next {!queue_free} overwrites it. *)

val free_count : t -> start:int -> len:int -> int
(** Free VBNs in a range per the on-media state. *)
