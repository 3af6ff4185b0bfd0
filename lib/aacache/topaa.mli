(** TopAA metafiles: persisted AA-cache seeds (§3.4).

    Rebuilding an AA cache from scratch needs a linear walk of the bitmap
    metafiles, which delays the first CP after a failover or reboot.
    Instead WAFL persists, per RAID-aware cache, one 4KiB block holding the
    best few hundred (AA, score) pairs — enough to sustain CPs while the
    full max-heap is rebuilt in the background — and, per RAID-agnostic
    cache, the HBPS's two pages verbatim, so that cache is operational
    immediately.

    Blocks are protected by a CRC and a versioned magic; corruption is
    reported as an error (the real system would fall back to the full scan,
    or to WAFL Iron for repair).

    Blocks live as {!Wafl_bitmap.Pagestore} pages, like the bitmaps, so
    the whole persisted free-space state stays off the OCaml heap. *)

type error = Bad_magic | Bad_version | Bad_checksum | Bad_layout

val pp_error : Format.formatter -> error -> unit

(** {2 RAID-aware: one block of best (aa, score) pairs} *)

val raid_aware_capacity : int
(** Entries that fit one block alongside header and CRC (510; the paper
    quotes 512 with no header overhead). *)

val save_raid_aware : Max_heap.t -> Wafl_bitmap.Pagestore.t
(** Serialize the heap's best entries into one 4KiB block (a file under an
    installed map directory). *)

val load_raid_aware : Wafl_bitmap.Pagestore.t -> ((int * int) list, error) result
(** Decode the (aa, score) seed list, best first. *)

(** {2 RAID-agnostic: the two HBPS pages} *)

type hbps_seed = {
  bin_width : int;
  max_score : int;
  bin_counts : int array;      (** histogram page: AAs per score bin *)
  entries : (int * int) list;  (** list page: (aa, bin) in stored order *)
}

val save_hbps : Hbps.t -> Wafl_bitmap.Pagestore.t * Wafl_bitmap.Pagestore.t
(** (histogram page, list page), each exactly one 4KiB block. *)

val load_hbps :
  Wafl_bitmap.Pagestore.t * Wafl_bitmap.Pagestore.t -> (hbps_seed, error) result

val seed_scores : hbps_seed -> (int * int) list
(** Approximate (aa, score) pairs for the listed AAs, scoring each at its
    bin's lower bound — what a freshly mounted cache offers before exact
    scores are recomputed. *)
