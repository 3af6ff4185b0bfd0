(** Online consistency checking and repair, in the spirit of WAFL Iron
    (§3.4: when TopAA or other metadata is damaged beyond RAID's ability to
    reconstruct, an online repair tool recomputes it from first
    principles).

    The checker cross-verifies the redundant state this library maintains:
    container maps against allocation bitmaps, cached AA scores against
    bitmap recomputation, and physical cross-links between volumes.  The
    repairer fixes what can be derived from the bitmaps (score drift,
    dangling references) and reports what cannot (orphaned blocks need an
    owner inventory the caller may not have). *)

type finding =
  | Range_score_drift of { range : int; aa : int; cached : int; actual : int }
      (** a RAID-range AA score disagrees with the bitmap *)
  | Vol_score_drift of { vol : string; aa : int; cached : int; actual : int }
  | Dangling_container of { vol : string; vvbn : int; pvbn : int }
      (** a container entry points at a physical block the aggregate
          considers free *)
  | Cross_link of { pvbn : int; vols : string list }
      (** one physical block referenced by more than one virtual block *)
  | Orphan_blocks of { count : int }
      (** allocated physical blocks no volume references (may be
          intentional: internal metadata, test rigs) *)

val pp_finding : Format.formatter -> finding -> unit

val check : Fs.t -> finding list
(** Scan everything; empty list = consistent.  Findings come in scan
    order: score drift (spaces in {!Fs.spaces} order, AAs ascending),
    then container references, then the orphan count. *)

type authority =
  | Bitmap_authority
      (** the allocation bitmaps are truth: dangling container entries are
          severed; orphans are left alone *)
  | Container_authority
      (** the container maps are truth (they reached NVRAM): dangling
          entries re-mark their physical block allocated, and orphaned
          allocated blocks are freed — the stance crash recovery needs
          when a bitmap page write was torn *)

val repair : ?authority:authority -> Fs.t -> finding list * int
(** Run {!check}, then fix what is derivable under [authority] (default
    {!Bitmap_authority}): score drift is repaired by recomputing scores
    and rebuilding the affected caches; dangling container entries are
    cleared (or re-marked, under {!Container_authority}, which also frees
    orphans).  Cross-links are reported but left alone.  Returns
    (original findings, number repaired). *)
