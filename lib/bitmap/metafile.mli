(** Bitmap metafiles: paged allocation bitmaps with I/O accounting.

    WAFL stores free-space state in flat metafiles indexed by VBN; each 4KiB
    metafile block covers 32k VBNs (§2.5, §3.2.1).  Every consistency point
    must write back each metafile block it dirtied, so the number of
    {e distinct} pages touched per CP is a direct file-system cost — the
    RAID-agnostic AA policy exists precisely to concentrate allocations into
    few pages.  This module tracks the allocated/free bit per VBN and counts
    dirty pages, page writes and page reads. *)

type t

type io_stats = {
  page_writes : int;  (** cumulative metafile blocks written by flushes *)
  page_reads : int;   (** cumulative metafile blocks read by scans *)
  flushes : int;      (** number of flushes (CPs) *)
}

val create : ?page_bits:int -> blocks:int -> unit -> t
(** Metafile tracking [blocks] VBNs, all initially free (see
    {!Bitmap.create}).  [page_bits]
    (default 32768, one 4KiB block) sets how many VBNs one metafile page
    covers; simulations scaled far below real device sizes shrink it
    together with the AA size so the page-per-AA alignment of §3.2.1 is
    preserved. *)

val page_bits : t -> int

val store : t -> Pagestore.t
(** The page store backing the map bitmap — the handle the integrity
    plane and the scrubber key their sidecar state on. *)

val blocks : t -> int
(** Number of VBNs tracked. *)

val pages : t -> int
(** Number of 4KiB metafile blocks backing the map. *)

val page_of_block : t -> int -> int
(** Metafile page that holds a VBN's bit. *)

val is_allocated : t -> int -> bool

val allocate : t -> int -> unit
(** Mark a VBN allocated; it must currently be free.  Dirties its page. *)

val allocate_harvested : t -> int -> unit
(** Trusted {!allocate} for the write-allocation hot path: the caller
    guarantees the VBN is currently free (harvest rings only hold free
    blocks), so the already-allocated check is skipped.  Still
    bounds-checked and still dirties the page. *)

val allocate_harvested_touched : t -> int -> touched:Bytes.t -> unit
(** {!allocate_harvested} that records the dirtied page as a nonzero
    byte in [touched] (length {!pages}) instead of updating the shared
    dirty state — the allocation-side mirror of {!free_batch_into}.
    Lets concurrent domains allocate into disjoint bitmap bytes without
    racing on the dirty bitmap; merge with {!mark_touched_dirty}. *)

val free : t -> int -> unit
(** Mark a VBN free; it must currently be allocated.  Dirties its page. *)

val allocate_range : t -> start:int -> len:int -> unit
(** Bulk-allocate a range of currently-free VBNs. *)

val free_count : t -> start:int -> len:int -> int
(** Free VBNs in a range — the AA score primitive.  Does not count as I/O
    (in-memory map); use {!scan_read} to model reading pages from media. *)

val used_count : t -> start:int -> len:int -> int

val free_mask32 : t -> int -> int
(** 32-bit free mask at a VBN ({!Bitmap.clear_mask32}): bit [i] set iff
    VBN [pos + i] is in bounds and free.  Allocation-free. *)

val harvest_free_into : t -> start:int -> len:int -> offset:int -> dst:int array -> pos:int -> int
(** Emit [offset + vbn] for every free VBN of the range into [dst] from
    index [pos], ascending; returns the new fill position.  The
    zero-allocation batch gather under the AA harvest cursor. *)

val free_extents : t -> start:int -> len:int -> Wafl_block.Extent.t list
(** Maximal free runs inside a range. *)

val free_run_stats : t -> start:int -> len:int -> int * int
(** [(run count, largest run length)] over the range without
    materializing extents ({!Bitmap.free_run_stats}).  Not I/O-counted. *)

val free_batch_into : t -> vbns:int array -> pos:int -> len:int -> touched:Bytes.t -> unit
(** Free [vbns.(pos .. pos+len-1)] without updating the shared dirty
    state, recording each dirtied page as a nonzero byte in [touched]
    (length {!pages}).  Building block of the parallel delayed-free
    apply: callers partition VBNs so concurrent batches touch disjoint
    bitmap bytes and disjoint pages, then merge with
    {!mark_touched_dirty}.  Raises [Invalid_argument] on an
    already-free VBN, like [free]. *)

val mark_touched_dirty : t -> touched:Bytes.t -> unit
(** Fold a [touched] page set into the dirty state, ascending — the
    serial merge step after {!free_batch_into} batches.  The resulting
    dirty set equals what per-VBN [free] calls would have produced. *)

val dirty_pages : t -> int
(** Distinct pages dirtied since the last flush. *)

val flush : t -> int
(** Write back all dirty pages; returns how many were written and clears the
    dirty set.  Increments [flushes] even when nothing was dirty. *)

val scan_read : t -> start:int -> len:int -> int
(** Model reading every metafile page overlapping the range (as the
    mount-time full cache rebuild does, §3.4); returns and accounts the
    number of page reads.  Raises [Invalid_argument] when the range runs
    past the tracked VBN space. *)

val stats : t -> io_stats

val reset_stats : t -> unit

val snapshot : t -> Bitmap.t
(** Copy of the current bit state (for persistence and verification). *)

val load : t -> Bitmap.t -> unit
(** Replace the bit state from a snapshot of identical length; clears the
    dirty set (models reading a consistent on-disk image). *)
