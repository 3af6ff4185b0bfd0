(** Online consistency checking and repair, in the spirit of WAFL Iron
    (§3.4: when TopAA or other metadata is damaged beyond RAID's ability to
    reconstruct, an online repair tool recomputes it from first
    principles).

    The checker cross-verifies the redundant state this library maintains:
    container maps against both levels of allocation bitmap, cached AA
    scores against bitmap recomputation, and physical cross-links between
    volumes.  The repairer fixes what the chosen authority derives. *)

type finding =
  | Range_score_drift of { range : int; aa : int; cached : int; actual : int }
      (** a RAID-range AA score disagrees with the bitmap *)
  | Vol_score_drift of { vol : string; aa : int; cached : int; actual : int }
  | Dangling_container of { vol : string; vvbn : int; pvbn : int }
      (** a container entry points at a physical block the aggregate
          considers free *)
  | Cross_link of { pvbn : int; first : string; later : string }
      (** one physical block referenced by more than one virtual block:
          the volume of its first owner in scan order, and of a later
          referrer *)
  | Orphan_blocks of { count : int }
      (** allocated physical blocks no volume references (may be
          intentional: internal metadata, test rigs) *)
  | Orphan_vvbns of { vol : string; count : int }
      (** allocated VVBNs with no container entry and no pending free:
          frees a crash lost (an image carries no queued frees) *)

val pp_finding : Format.formatter -> finding -> unit

val owners : Fs.t -> int array
(** The PVBN-owner map, built in one scan of every container map: entry
    [pvbn] is [-1] when no container entry references the block, else
    [vvbn * n + pos] for the block's first referrer, VVBN [vvbn] of
    volume [(Fs.vols fs).(pos)] of [n]. *)

val check : Fs.t -> finding list
(** Scan everything; empty list = consistent.  Findings come in scan
    order: score drift (spaces in {!Fs.spaces} order, AAs ascending),
    then container references volume by volume (dangling entries and
    cross-links by VVBN, then the volume's orphan VVBNs), then the
    orphan-block count. *)

type authority =
  | Bitmap_authority
      (** the allocation bitmaps are truth: dangling container entries are
          severed; orphans are left alone *)
  | Container_authority
      (** the container maps are truth (they reached NVRAM): dangling
          entries re-mark their physical block allocated, and orphaned
          blocks and VVBNs are freed — the stance crash recovery needs
          when a bitmap page write was torn or queued frees were lost *)

val repair : ?authority:authority -> Fs.t -> finding list * int
(** Run {!check}, then fix what is derivable under [authority] (default
    {!Bitmap_authority}): score drift is repaired by recomputing scores
    and rebuilding the affected caches; dangling container entries are
    cleared (or re-marked, under {!Container_authority}, which also frees
    orphans, reusing the check's owner map).  Cross-links are reported but
    left alone.  Returns (original findings, number repaired). *)
