(** Active map with delayed-free batching.

    In a COW file system an overwrite frees the block it replaces, but the
    free must not take effect until the consistency point that commits the
    new image is durable.  WAFL therefore queues frees and applies them in
    batch at the CP boundary (§3.3); the same batching is what lets AA score
    increments be applied once per CP instead of per operation.  This module
    wraps a {!Metafile} with that protocol. *)

type t

type commit_result = {
  freed : int list;       (** VBNs whose bits were cleared by this commit *)
  pages_written : int;    (** metafile pages flushed *)
}

val create : ?page_bits:int -> blocks:int -> unit -> t

val metafile : t -> Metafile.t
(** The underlying map; reads through it see allocations immediately and
    queued frees not yet. *)

val blocks : t -> int

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

val allocate_harvested_touched : t -> int -> touched:Bytes.t -> unit
(** {!allocate_harvested} that records the dirtied metafile page as a
    nonzero byte in [touched] (length [Metafile.pages (metafile t)])
    instead of updating the shared dirty state, so concurrent domains
    allocating into disjoint bitmap bytes never race; merge afterwards
    with {!Metafile.mark_touched_dirty}. *)

val queue_free : t -> int -> unit
(** Queue a VBN to be freed at the next commit.  It must currently be
    allocated; queuing the same VBN twice is an error. *)

val pending_free_count : t -> int

val has_pending_free : t -> int -> bool

val commit : ?pool:Wafl_par.Par.t -> t -> commit_result
(** Apply all queued frees, flush the metafile, and return the batch.
    [pool] defaults to {!Wafl_par.Par.serial}.  With a pool of more than
    one domain and
    enough queued frees, the bit clears are applied in parallel: VBNs
    are bucketed into page-aligned chunks of the block space so domains
    own disjoint bitmap bytes and disjoint pages, and the dirty-page
    sets are merged serially afterwards — the resulting map, pending
    state, freed list and page count are identical to the serial
    apply. *)

val free_count : t -> start:int -> len:int -> int
(** Free VBNs in a range per the on-media state. *)
