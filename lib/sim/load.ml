open Wafl_util

type point = { offered_load : float; throughput : float; latency_ms : float }

type curve = {
  label : string;
  service_time_us : float;
  cpu_us_per_op : float;
  cache_us_per_op : float;
  points : point list;
}

let measure_service_time ~cps ~ops_per_cp ~step () =
  assert (cps > 0 && ops_per_cp > 0);
  let reports = List.init cps (fun _ -> step ops_per_cp) in
  Cost_model.combine (List.map Cost_model.of_report reports)

let default_loads capacity =
  List.map (fun frac -> frac *. capacity)
    [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95; 1.0; 1.1; 1.3; 1.6 ]

let sweep ~label (costs : Cost_model.op_costs) =
  let service_s = costs.Cost_model.service_time_us *. 1e-6 in
  let loads = default_loads (1.0 /. service_s) in
  let points =
    List.map2
      (fun offered_load (throughput, latency) ->
        { offered_load; throughput; latency_ms = latency *. 1e3 })
      loads
      (Queueing.sweep ~service_time:service_s ~cv2:1.0 ~loads)
  in
  {
    label;
    service_time_us = costs.Cost_model.service_time_us;
    cpu_us_per_op = costs.Cost_model.cpu_us_per_op;
    cache_us_per_op = costs.Cost_model.cache_us_per_op;
    points;
  }

let peak_throughput curve =
  List.fold_left (fun acc p -> Float.max acc p.throughput) 0.0 curve.points

let latency_at_peak_ms curve =
  let peak = peak_throughput curve in
  (* latency of the first point achieving peak throughput *)
  let rec find = function
    | [] -> 0.0
    | p :: rest -> if p.throughput >= peak -. 1e-9 then p.latency_ms else find rest
  in
  find curve.points

let latency_at_load_ms curve load =
  let sorted = List.sort (fun a b -> compare a.offered_load b.offered_load) curve.points in
  match sorted with
  | [] -> Error (Printf.sprintf "curve %S has no points" curve.label)
  | first :: _ ->
    let last = List.nth sorted (List.length sorted - 1) in
    if load < first.offered_load then
      Error
        (Printf.sprintf
           "offered load %.0f ops/s is below the sweep's lowest point \
            (%.0f ops/s) for curve %S"
           load first.offered_load curve.label)
    else if load > last.offered_load then
      Error
        (Printf.sprintf
           "offered load %.0f ops/s exceeds peak throughput: the sweep for \
            curve %S tops out at %.0f ops/s offered (peak achieved %.0f \
            ops/s)"
           load curve.label last.offered_load (peak_throughput curve))
    else begin
      let rec go = function
        | p :: (q :: _ as rest) ->
          if load >= p.offered_load && load <= q.offered_load then
            if q.offered_load = p.offered_load then Ok p.latency_ms
            else begin
              let f = (load -. p.offered_load) /. (q.offered_load -. p.offered_load) in
              Ok (p.latency_ms +. (f *. (q.latency_ms -. p.latency_ms)))
            end
          else go rest
        | [ p ] -> Ok p.latency_ms (* load = the single/last point exactly *)
        | [] -> assert false (* bounds checked above *)
      in
      go sorted
    end

let to_series curve =
  Series.make curve.label
    (List.map (fun p -> (p.throughput /. 1000.0, p.latency_ms)) curve.points)
