let mg1_response_time ~service_time ~cv2 ~arrival_rate =
  let rho = arrival_rate *. service_time in
  if rho >= 1.0 then None
  else begin
    let wq = rho *. service_time *. (1.0 +. cv2) /. (2.0 *. (1.0 -. rho)) in
    Some (service_time +. wq)
  end

let capacity service_time = 0.98 /. service_time

let closed_loop_point ~service_time ~cv2 ~offered_load ~throughput ~latency =
  let cap = capacity service_time in
  if offered_load < cap then begin
    match mg1_response_time ~service_time ~cv2 ~arrival_rate:offered_load with
    | Some r ->
      throughput := offered_load;
      latency := r
    | None ->
      throughput := cap;
      latency := service_time /. (1.0 -. 0.98)
  end
  else begin
    (* Saturated: excess clients queue; latency grows with the backlog. *)
    let base = service_time /. (1.0 -. 0.98) in
    throughput := cap;
    latency := base *. (1.0 +. ((offered_load -. cap) /. cap))
  end

let sweep ~service_time ~cv2 ~loads =
  let throughput = ref 0.0 and latency = ref 0.0 in
  List.map
    (fun offered_load ->
      closed_loop_point ~service_time ~cv2 ~offered_load ~throughput ~latency;
      (!throughput, !latency))
    loads
