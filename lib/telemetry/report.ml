let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]
(* U+2581..U+2588, lower one-eighth block .. full block *)

(* One row of block glyphs scaled to the series' own min/max; longer
   series are bucketed by averaging, non-finite values ignored. *)
let sparkline ?(width = 60) xs =
  let xs = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq xs)) in
  let n = Array.length xs in
  if n = 0 || width <= 0 then ""
  else begin
    (* bucket by averaging so long histories still fit one row *)
    let cells = min n width in
    let bucket = Array.make cells 0.0 in
    let counts = Array.make cells 0 in
    Array.iteri
      (fun i v ->
        let c = i * cells / n in
        bucket.(c) <- bucket.(c) +. v;
        counts.(c) <- counts.(c) + 1)
      xs;
    for c = 0 to cells - 1 do
      if counts.(c) > 0 then bucket.(c) <- bucket.(c) /. float_of_int counts.(c)
    done;
    let lo = Array.fold_left min bucket.(0) bucket in
    let hi = Array.fold_left max bucket.(0) bucket in
    let buf = Buffer.create (cells * 3) in
    Array.iter
      (fun v ->
        let g =
          if hi <= lo then 3
          else
            let f = (v -. lo) /. (hi -. lo) in
            min 7 (max 0 (int_of_float (f *. 7.99)))
        in
        Buffer.add_string buf glyphs.(g))
      bucket;
    Buffer.contents buf
  end

(* The deepest currently open span is "what the system is doing now". *)
let current_phase spans =
  List.fold_left
    (fun acc k ->
      if Span.open_now spans k > 0 then
        match acc with
        | Some a when Span.depth a >= Span.depth k -> acc
        | _ -> Some k
      else acc)
    None Span.all

let last_cell series row name =
  match Timeseries.column_index series name with
  | Some i when i < Array.length row -> Some row.(i)
  | _ -> None

let column series name =
  match Timeseries.column_index series name with
  | None -> [||]
  | Some i ->
    Timeseries.rows series
    |> List.filter_map (fun r -> if i < Array.length r then Some r.(i) else None)
    |> Array.of_list

let latency_pane lat =
  if Latency.ops_recorded lat = 0 then "latency: no ops recorded\n"
  else begin
    let buf = Buffer.create 1024 in
    let pr fmt = Printf.bprintf buf fmt in
    let p50, p99, p999 = Latency.quantiles_ms lat in
    pr "latency:  %d ops over %d cps  p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n"
      (Latency.ops_recorded lat) (Latency.cps_recorded lat) p50 p99 p999;
    List.iter
      (fun (slot, name) ->
        let v50, v99, v999 = Latency.quantiles_ms ~vol:slot lat in
        if v50 > 0.0 then
          pr "  vol %-16s p50 %8.2f  p99 %8.2f  p999 %8.2f ms\n" name v50 v99 v999)
      (Latency.vols lat);
    List.iter
      (fun (r : Slo.report) ->
        pr "slo %-12s <%gms @%.3g  burn fast %.2f  slow %.2f%s\n" r.r_name r.r_threshold_ms
          r.r_target r.r_burn_fast r.r_burn_slow
          (if r.r_breach then "  ** BREACH **" else ""))
      (Latency.last_slo_reports lat);
    (match Latency.exemplars lat with
    | [] -> ()
    | exs ->
      pr "tail exemplars:\n";
      List.iteri
        (fun i (e : Latency.exemplar) ->
          if i < 3 then
            pr "  %8.2f ms  %-9s vol %-12s cp %-5d %s\n"
              (float_of_int e.ex_ns /. 1e6)
              (Latency.op_name e.ex_op) e.ex_vol_name e.ex_cp
              (Latency.phase_stack e.ex_phase))
        exs);
    Buffer.contents buf
  end

let health ?(width = 80) tel =
  let width = max 40 width in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.bprintf buf fmt in
  let rule () = pr "%s\n" (String.make width '-') in
  let spans = Telemetry.spans tel in
  let series = Telemetry.series tel in
  let cps = Timeseries.appended series in
  let phase =
    match current_phase spans with Some k -> Span.name k | None -> "idle"
  in
  pr "waflsim health  |  cp %d  |  phase: %s\n" cps phase;
  rule ();
  (* --- span table --- *)
  let live =
    List.filter (fun k -> Span.count spans k > 0 || Span.open_now spans k > 0) Span.all
  in
  if live = [] then pr "(no spans recorded)\n"
  else begin
    pr "%-34s %10s %12s %10s %5s\n" "span" "count" "total ms" "avg us" "open";
    List.iter
      (fun k ->
        let count = Span.count spans k in
        let total = Span.total_ns spans k in
        let avg_us =
          if count = 0 then 0.0 else float_of_int total /. float_of_int count /. 1e3
        in
        let label = String.make (2 * Span.depth k) ' ' ^ Span.name k in
        pr "%-34s %10d %12.2f %10.1f %5d\n" label count
          (float_of_int total /. 1e6)
          avg_us (Span.open_now spans k))
      live
  end;
  rule ();
  (* --- newest sample --- *)
  (match Timeseries.last series with
  | None -> pr "(no samples yet)\n"
  | Some row ->
    let cell = last_cell series row in
    let wall_s =
      match cell "cp_wall_ns" with
      | Some ns when ns > 0.0 -> ns /. 1e9
      | _ -> 0.0
    in
    let rate name =
      match cell name with
      | Some v when wall_s > 0.0 -> v /. wall_s
      | _ -> 0.0
    in
    pr "last cp:  %.0f ops  %.0f blocks  picks/s %.0f  search ns/blk %.1f\n"
      (Option.value ~default:0.0 (cell "ops"))
      (Option.value ~default:0.0 (cell "blocks_allocated"))
      (rate "picks")
      (Option.value ~default:0.0 (cell "search_ns_per_block"));
    pr "space:    free %.1f%%  frag %.3f  runs %.0f  largest run %.0f\n"
      (100.0 *. Option.value ~default:0.0 (cell "free_frac"))
      (Option.value ~default:0.0 (cell "frag"))
      (Option.value ~default:0.0 (cell "free_runs"))
      (Option.value ~default:0.0 (cell "largest_free_run"));
    pr "alloc:    hbps err bound %.0f  ring high-water %.0f  device us %.0f\n"
      (Option.value ~default:0.0 (cell "hbps_score_error_max"))
      (Option.value ~default:0.0 (cell "ring_high_water"))
      (Option.value ~default:0.0 (cell "device_us"));
    (match cell "ssd_wa" with
    | Some wa when wa > 0.0 ->
      let reloc i =
        Option.value ~default:0.0 (cell (Printf.sprintf "ssd_reloc_s%d" i))
      in
      pr "ssd:      wa %.3f  reloc s0-s3 %.0f/%.0f/%.0f/%.0f  max wear %.0f\n"
        wa (reloc 0) (reloc 1) (reloc 2) (reloc 3)
        (Option.value ~default:0.0 (cell "ssd_max_wear"))
    | _ -> ());
    let frag = column series "frag" in
    if Array.length frag > 1 then
      pr "frag trend (%d cps): %s\n" (Array.length frag)
        (sparkline ~width:(width - 24) frag));
  (* --- request latency pane (only when a recorder is attached and has
     seen ops) --- *)
  (match Telemetry.latency tel with
  | Some lat when Latency.ops_recorded lat > 0 ->
    rule ();
    Buffer.add_string buf (latency_pane lat)
  | _ -> ());
  Buffer.contents buf
