open Wafl_telemetry

type scope = Full | Spaces of Space.t list

let request ?(vols = [||]) agg = function
  | Full ->
    Telemetry.incr "aggregate.cache_rebuilds";
    Array.iter
      (fun (r : Aggregate.range) -> Space.rebuild r.Aggregate.space)
      (Aggregate.ranges agg);
    Array.iter (fun v -> Space.rebuild (Flexvol.space v)) vols
  | Spaces spaces -> List.iter Space.rebuild spaces
