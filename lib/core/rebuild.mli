(** The one cache-rebuild entry point.

    Every path that recomputes AA scores and caches from the bitmaps —
    eager full-scan mount, Iron repair, fault fallback for a corrupt
    TopAA block, and the lazy first-touch materialization behind
    incremental mount — funnels through this module, so they share one
    implementation (and one determinism argument: each score slot is a
    pure function of the bitmap, written exactly once, at any domain
    count). *)

type scope =
  | Full  (** every range of the aggregate, plus the given volumes *)
  | Ranges of Aggregate.range list
      (** just these ranges (fault fallback / targeted repair) *)

val request : ?vols:Flexvol.t array -> Aggregate.t -> scope -> unit
(** Rescore and rebuild the caches in [scope], stamping them fresh.  The
    system's scan pool ({!Aggregate.pool}) spreads the per-AA rescoring
    over its domains; results are bit-identical to a serial rebuild at
    any domain count. *)

val request_vol : Flexvol.t -> unit
(** Volume-granular {!request} (the old [Flexvol.rebuild_cache] entry
    point). *)

(** {2 Lazy first-touch materialization}

    After a lazy mount every range and volume is stale-but-seeded.  The
    allocator's AA pick/harvest, the Iron scan, and the cleaner pass call
    these before trusting scores; a fresh target costs one integer
    compare, a stale one pays its exact rescore (accounted as metafile
    page reads) right then — mount-ready time stays independent of
    aggregate size because nothing is scanned until touched. *)

val touch_range : Aggregate.t -> Aggregate.range -> unit

val touch_vol : Flexvol.t -> unit
