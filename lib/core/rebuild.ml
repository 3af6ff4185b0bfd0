open Wafl_bitmap
open Wafl_telemetry
type scope = Full | Ranges of Aggregate.range list

let request ?(vols = [||]) agg scope =
  match scope with
  | Full ->
    Telemetry.incr "aggregate.cache_rebuilds";
    Array.iter (fun r -> Aggregate.rebuild_range agg r) (Aggregate.ranges agg);
    Array.iter Flexvol.rebuild_cache vols
  | Ranges rs -> List.iter (fun r -> Aggregate.rebuild_range agg r) rs

let request_vol vol = Flexvol.rebuild_cache vol

(* First-touch hooks: a fresh range/volume costs one integer compare; a
   stale one pays the page reads its exact rescore implies (accounted as
   metafile scan I/O, like the eager mount scan) and is re-stamped.  The
   system's scan pool, if any, spreads the rescore. *)

let materialize_range agg r =
  Telemetry.incr "rebuild.lazy_ranges";
  ignore
    (Metafile.scan_read (Aggregate.metafile agg) ~start:r.Aggregate.base
       ~len:r.Aggregate.blocks);
  Aggregate.rebuild_range agg r

let[@inline] touch_range agg r =
  if not (Aggregate.range_fresh agg r) then materialize_range agg r

let materialize_vol v =
  Telemetry.incr "rebuild.lazy_vols";
  ignore (Metafile.scan_read (Flexvol.metafile v) ~start:0 ~len:(Flexvol.blocks v));
  Flexvol.rebuild_cache v

let[@inline] touch_vol v = if not (Flexvol.cache_fresh v) then materialize_vol v
