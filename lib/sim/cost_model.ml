open Wafl_core

type op_costs = {
  ops : int;
  cpu_us_per_op : float;
  cache_us_per_op : float;
  service_time_us : float;
  cp_duration_us : float;
}

let model = Wafl_telemetry.Latency.model

let of_report (r : Cp.report) =
  if r.Cp.ops <= 0 then invalid_arg "Cost_model.of_report: empty CP";
  let ops = float_of_int r.Cp.ops in
  let pages = float_of_int (r.Cp.agg_metafile_pages + r.Cp.vol_metafile_pages) in
  let cache_us = float_of_int r.Cp.cache_work *. model.cache_work_unit_us in
  let scan_us = float_of_int r.Cp.alloc_candidates *. model.alloc_candidate_us in
  let cpu_total =
    (model.cpu_base_us_per_op *. ops)
    +. (pages *. model.metafile_page_cpu_us)
    +. cache_us +. scan_us
  in
  let io_total = r.Cp.device_time_us +. (pages *. model.metafile_page_write_us) in
  {
    ops = r.Cp.ops;
    cpu_us_per_op = cpu_total /. ops;
    cache_us_per_op = cache_us /. ops;
    service_time_us = (cpu_total +. io_total) /. ops;
    cp_duration_us = cpu_total +. io_total;
  }

let combine costs =
  match costs with
  | [] -> invalid_arg "Cost_model.combine: empty"
  | _ ->
    let total_ops = List.fold_left (fun acc c -> acc + c.ops) 0 costs in
    let weighted f = List.fold_left (fun acc c -> acc +. (f c *. float_of_int c.ops)) 0.0 costs in
    let n = float_of_int total_ops in
    {
      ops = total_ops;
      cpu_us_per_op = weighted (fun c -> c.cpu_us_per_op) /. n;
      cache_us_per_op = weighted (fun c -> c.cache_us_per_op) /. n;
      service_time_us = weighted (fun c -> c.service_time_us) /. n;
      cp_duration_us = List.fold_left (fun acc c -> acc +. c.cp_duration_us) 0.0 costs;
    }
