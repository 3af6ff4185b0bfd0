type t = {
  registry : Registry.t;
  tracer : Tracer.t;
  spans : Span.t;
  series : Timeseries.t;
  latency : Latency.t option;
  mutable sample_hook : (unit -> unit) option;
}

let create ?trace_capacity ?series_capacity ?clock ?(tracing = false) ?latency
    () =
  {
    registry = Registry.create ();
    tracer = Tracer.create ?capacity:trace_capacity ~enabled:tracing ();
    spans = Span.create ?clock ();
    series = Timeseries.create ?capacity:series_capacity ();
    latency;
    sample_hook = None;
  }

let registry t = t.registry
let tracer t = t.tracer
let spans t = t.spans
let series t = t.series
let latency t = t.latency

let on_sample t hook = t.sample_hook <- hook

(* --- process-wide installation --- *)

let state : t option ref = ref None

let install t = state := Some t
let uninstall () = state := None
let is_active () = !state <> None

let with_installed t f =
  install t;
  Fun.protect ~finally:uninstall f

(* --- helpers against the installed instance --- *)

let incr name =
  match !state with None -> () | Some t -> Registry.incr (Registry.counter t.registry name)

let add name n =
  match !state with None -> () | Some t -> Registry.add (Registry.counter t.registry name) n

let set_gauge name v =
  match !state with None -> () | Some t -> Registry.set (Registry.gauge t.registry name) v

let max_gauge name v =
  match !state with None -> () | Some t -> Registry.set_max (Registry.gauge t.registry name) v

(* --- spans (branch-only no-ops when uninstalled) --- *)

let span_enter k = match !state with None -> () | Some t -> Span.enter t.spans k
let span_exit k = match !state with None -> () | Some t -> Span.exit t.spans k
let now_ns () = match !state with None -> 0 | Some _ -> Span.now_ns ()
let span_total_ns k = match !state with None -> 0 | Some t -> Span.total_ns t.spans k

(* --- time series --- *)

let sample ~columns row =
  match !state with
  | None -> ()
  | Some t ->
    Timeseries.set_columns t.series columns;
    Timeseries.append t.series (row t);
    (match t.sample_hook with None -> () | Some hook -> hook ())

(* --- trace emitters --- *)

let trace_cp_begin () =
  match !state with None -> () | Some t -> Tracer.cp_begin t.tracer

let trace_aa_pick ~space ~aa ~score =
  match !state with None -> () | Some t -> Tracer.aa_pick t.tracer ~space ~aa ~score

let trace_cache_replenish ~space ~listed =
  match !state with None -> () | Some t -> Tracer.cache_replenish t.tracer ~space ~listed

let trace_tetris_write ~space ~tetrises ~full_stripes ~partial_stripes =
  match !state with
  | None -> ()
  | Some t -> Tracer.tetris_write t.tracer ~space ~tetrises ~full_stripes ~partial_stripes

let trace_cleaner_pass ~aas ~relocated ~reclaimed =
  match !state with
  | None -> ()
  | Some t -> Tracer.cleaner_pass t.tracer ~aas ~relocated ~reclaimed

let trace_fault_inject ~space ~transients ~torn ~failed ~spikes =
  match !state with
  | None -> ()
  | Some t -> Tracer.fault_inject t.tracer ~space ~transients ~torn ~failed ~spikes

let trace_io_retry ~space ~retries ~ok =
  match !state with None -> () | Some t -> Tracer.io_retry t.tracer ~space ~retries ~ok

(* --- request latency (branch-only no-ops without an installed instance
   carrying a Latency.t) --- *)

let lat_active () =
  match !state with None -> false | Some t -> t.latency <> None

let lat_vol_slot ~uid ~name =
  match !state with
  | None -> -1
  | Some t -> (
    match t.latency with
    | None -> -1
    | Some lat -> Latency.vol_slot lat ~uid ~name)

let lat_cp_record ~groups ~pages ~cache_work ~candidates ~device_us ~spike_us
    ~pick_ns ~harvest_ns =
  match !state with
  | None -> ()
  | Some t -> (
    match t.latency with
    | None -> ()
    | Some lat ->
      Latency.cp_record lat ~groups ~pages ~cache_work ~candidates ~device_us
        ~spike_us ~pick_ns ~harvest_ns;
      (* Surface the SLO state as ordinary metrics + a trace event, so
         burn rates ride the existing export/health paths. *)
      List.iter
        (fun (r : Slo.report) ->
          Registry.set
            (Registry.gauge t.registry ("slo." ^ r.r_name ^ ".burn_fast"))
            r.r_burn_fast;
          Registry.set
            (Registry.gauge t.registry ("slo." ^ r.r_name ^ ".burn_slow"))
            r.r_burn_slow;
          if r.r_violations > 0 then
            Registry.add
              (Registry.counter t.registry ("slo." ^ r.r_name ^ ".violations"))
              r.r_violations;
          if r.r_breach then begin
            Registry.incr
              (Registry.counter t.registry ("slo." ^ r.r_name ^ ".breaches"));
            Tracer.slo_violation t.tracer ~slo:r.r_name
              ~burn_fast:r.r_burn_fast ~burn_slow:r.r_burn_slow
              ~violations:r.r_violations
          end)
        (Latency.last_slo_reports lat))

let lat_quantiles_ms ~vol =
  match !state with
  | None -> (0., 0., 0.)
  | Some t -> (
    match t.latency with
    | None -> (0., 0., 0.)
    | Some lat ->
      if vol < 0 then Latency.quantiles_ms lat
      else Latency.quantiles_ms ~vol lat)
