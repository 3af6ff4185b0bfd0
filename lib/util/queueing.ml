let mg1_response_time ~service_time ~cv2 ~arrival_rate =
  let rho = arrival_rate *. service_time in
  if rho >= 1.0 then None
  else begin
    let wq = rho *. service_time *. (1.0 +. cv2) /. (2.0 *. (1.0 -. rho)) in
    Some (service_time +. wq)
  end

let sweep ~service_time ~cv2 ~loads =
  let cap = 0.98 /. service_time in
  let saturated = service_time /. (1.0 -. 0.98) in
  List.map
    (fun offered_load ->
      if offered_load < cap then
        match mg1_response_time ~service_time ~cv2 ~arrival_rate:offered_load with
        | Some r -> (offered_load, r)
        | None -> (cap, saturated)
      else
        (* Saturated: excess clients queue; latency grows with the backlog. *)
        (cap, saturated *. (1.0 +. ((offered_load -. cap) /. cap))))
    loads
