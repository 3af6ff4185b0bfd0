let write_cost_us (p : Profile.hdd) ~chains ~blocks =
  (float_of_int chains *. p.Profile.seek_us)
  +. (float_of_int blocks *. p.Profile.transfer_us_per_block)

let random_read_cost_us (p : Profile.hdd) ~ios =
  float_of_int ios *. (p.Profile.seek_us +. p.Profile.transfer_us_per_block)

(* HDDs are stateless cost models, so fault handling lives in the cost
   function: each block in [locals] is offered to the fault plane; failed
   blocks transfer nothing (torn blocks still spin under the head). *)
let faulty_write_cost_us fault (p : Profile.hdd) ~chains ~locals ~pos ~len ~parity_writes =
  let written =
    match fault with
    | None -> len
    | Some dev ->
      let n = ref 0 in
      for k = pos to pos + len - 1 do
        match Wafl_fault.Fault.write dev ~block:locals.(k) with
        | Wafl_fault.Fault.Written | Wafl_fault.Fault.Written_torn -> incr n
        | Wafl_fault.Fault.Failed -> ()
      done;
      !n
  in
  write_cost_us p ~chains ~blocks:(written + parity_writes)

let streaming_bandwidth_blocks_per_s p = 1_000_000.0 /. p.Profile.transfer_us_per_block
