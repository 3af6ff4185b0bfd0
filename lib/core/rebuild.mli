(** The one cache-rebuild entry point.

    Every path that recomputes AA scores and caches from the bitmaps —
    eager full-scan mount, Iron repair, fault fallback for a corrupt
    TopAA block, verified-remount quarantine and the scrubber — funnels
    through {!Space.rebuild}, so they share one implementation: each
    score slot is a pure function of the bitmap.  The lazy
    first-touch materialization behind incremental mount is
    {!Space.touch}. *)

type scope =
  | Full  (** every range of the aggregate, plus the given volumes *)
  | Spaces of Space.t list
      (** just these spaces (fault fallback / targeted repair) *)

val request : ?vols:Flexvol.t array -> Aggregate.t -> scope -> unit
(** Rebuild every space in [scope] ({!Space.rebuild}); a [Full] request
    counts [aggregate.cache_rebuilds]. *)
