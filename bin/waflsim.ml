(* waflsim: run individual paper experiments from the command line. *)

open Cmdliner
open Wafl_experiments
open Wafl_telemetry

let scale_arg =
  let doc = "Experiment scale: 'quick' (seconds, CI-sized) or 'full'." in
  let parse s =
    Option.to_result (Common.scale_of_string s)
      ~none:(`Msg (Printf.sprintf "unknown scale %S (expected quick|full)" s))
  in
  let print fmt s = Format.pp_print_string fmt (if s = Common.Quick then "quick" else "full") in
  Arg.(value & opt (conv (parse, print)) Common.Quick & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let metrics_out_arg =
  let doc =
    "Write a JSON telemetry report (counters, gauges, span totals, the per-CP series \
     schema) to $(docv) when the run finishes.  With $(b,.csv) as the extension the \
     report is rendered as CSV rows, with $(b,.prom) as Prometheus text."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* --metrics-format is validated at parse time: a typo'd format fails the
   command line with the legal choices spelled out. *)
type metrics_format = Mf_auto | Mf_json | Mf_csv | Mf_prom

let metrics_format_arg =
  let doc =
    "Rendering for $(b,--metrics-out): $(b,json), $(b,csv) or $(b,prom) (Prometheus \
     text exposition 0.0.4, including per-op latency histograms and quantile gauges \
     when $(b,--latency) is on).  The default $(b,auto) picks by file extension \
     ($(b,.csv) -> csv, $(b,.prom) -> prom, otherwise json)."
  in
  let formats =
    [ ("auto", Mf_auto); ("json", Mf_json); ("csv", Mf_csv); ("prom", Mf_prom);
      ("prometheus", Mf_prom) ]
  in
  Arg.(value & opt (enum formats) Mf_auto & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

let latency_arg =
  let doc =
    "Install request-level latency accounting: every staged op gets a modeled latency \
     (wait in the arrival batch + its CP's service time, including injected device \
     spikes) recorded into per-(op kind x volume) HDR histograms.  Adds \
     p50/p99/p999 columns to $(b,--timeseries-out), a latency pane to $(b,top), \
     per-op histograms to $(b,--metrics-format prom) output, and a post-run summary \
     with tail exemplars naming the CP phase that dominated each outlier."
  in
  Arg.(value & flag & info [ "latency" ] ~doc)

let slo_conv =
  let parse s =
    match Slo.objective_of_string s with Ok o -> Ok o | Error msg -> Error (`Msg msg)
  in
  let print fmt o = Format.pp_print_string fmt (Slo.objective_to_string o) in
  Arg.conv ~docv:"NAME:MS:TARGET" (parse, print)

let slo_arg =
  let doc =
    "Track a latency objective (repeatable): TARGET (a fraction, e.g. 0.99) of ops \
     must complete under MS milliseconds.  Implies $(b,--latency).  Each objective's \
     burn rate over fast (12-CP) and slow (120-CP) windows is exported as \
     $(b,slo.NAME.burn_fast)/$(b,burn_slow) gauges; a breach (both windows burning \
     above 1.0) bumps $(b,slo.NAME.breaches) and emits a $(b,slo_violation) trace \
     event."
  in
  Arg.(value & opt_all slo_conv [] & info [ "slo" ] ~docv:"NAME:MS:TARGET" ~doc)

let trace_out_arg =
  let doc =
    "Enable structured event tracing (CP boundaries, AA picks, cache replenishes, tetris \
     writes, cleaner passes, free commits) and write the retained events to $(docv) — \
     CSV by default, JSON with a $(b,.json) extension."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* Reject non-positive numeric flags at parse time, before any experiment
   state is built, with the flag's own name in the message. *)
let positive_int flag =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be positive (got %d)" flag n))
    | None -> Error (`Msg (Printf.sprintf "%s expects a positive integer (got %S)" flag s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let trace_capacity_arg =
  let doc = "Ring-buffer capacity (events retained) for $(b,--trace-out)." in
  Arg.(
    value
    & opt (positive_int "--trace-capacity") 65_536
    & info [ "trace-capacity" ] ~docv:"N" ~doc)

let timeseries_out_arg =
  let doc =
    "Write the per-CP time series (search ns/block, HBPS score-error bound, AA score \
     deciles, free-space fragmentation, ring high-water, fault totals) to $(docv) when \
     the run finishes — JSON by default, CSV with a $(b,.csv) extension."
  in
  Arg.(value & opt (some string) None & info [ "timeseries-out" ] ~docv:"FILE" ~doc)

(* What a run reports, as opposed to how it runs (Wafl_cli.Run_flags). *)
type outputs = {
  metrics_out : string option;
  metrics_format : metrics_format;
  trace_out : string option;
  trace_capacity : int;
  timeseries_out : string option;
  latency : bool;
  slos : Slo.objective list;
}

let outputs_term =
  let make metrics_out metrics_format trace_out trace_capacity timeseries_out latency slos =
    { metrics_out; metrics_format; trace_out; trace_capacity; timeseries_out; latency; slos }
  in
  Term.(
    const make $ metrics_out_arg $ metrics_format_arg $ trace_out_arg $ trace_capacity_arg
    $ timeseries_out_arg $ latency_arg $ slo_arg)

let no_iron_gate_arg =
  let doc =
    "Skip the post-run consistency gate (by default every system the run built is checked \
     with WAFL Iron and any finding other than advisory orphan blocks exits nonzero)."
  in
  Arg.(value & flag & info [ "no-iron-gate" ] ~doc)

(* Post-run Iron gate: check every system the run registered.  Orphan
   blocks are advisory (some experiments allocate aggregate blocks with no
   volume owner by design); anything else is a consistency bug. *)
let run_iron_gate () =
  let systems = Wafl_core.Fs.registered () in
  Wafl_core.Fs.disable_registry ();
  let bad = ref 0 in
  List.iteri
    (fun i fs ->
      List.iter
        (fun finding ->
          match finding with
          | Wafl_core.Iron.Orphan_blocks _ ->
            Format.printf "iron gate (system %d, advisory): %a@." i Wafl_core.Iron.pp_finding
              finding
          | _ ->
            incr bad;
            Format.printf "iron gate (system %d): %a@." i Wafl_core.Iron.pp_finding finding)
        (Wafl_core.Iron.check fs))
    systems;
  if !bad > 0 then begin
    Printf.eprintf "waflsim: iron gate failed: %d finding(s) across %d system(s)\n" !bad
      (List.length systems);
    exit 1
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Fail before the (possibly minutes-long) experiment runs, not after. *)
let check_writable path =
  try close_out (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path)
  with Sys_error msg ->
    Printf.eprintf "waflsim: cannot write %s: %s\n" path msg;
    exit 2

let flush_telemetry out tel =
  Option.iter
    (fun path ->
      let render =
        match out.metrics_format with
        | Mf_json -> Export.metrics_json
        | Mf_csv -> Export.metrics_csv
        | Mf_prom -> Export.metrics_prom
        | Mf_auto ->
          if Filename.check_suffix path ".csv" then Export.metrics_csv
          else if Filename.check_suffix path ".prom" then Export.metrics_prom
          else Export.metrics_json
      in
      write_file path (render tel);
      Printf.printf "telemetry: metrics written to %s\n%!" path)
    out.metrics_out;
  Option.iter
    (fun path ->
      let render =
        if Filename.check_suffix path ".json" then Export.trace_json else Export.trace_csv
      in
      write_file path (render tel);
      Printf.printf "telemetry: trace written to %s\n%!" path)
    out.trace_out;
  Option.iter
    (fun path ->
      let render =
        if Filename.check_suffix path ".csv" then Export.timeseries_csv
        else Export.timeseries_json
      in
      write_file path (render tel);
      Printf.printf "telemetry: time series written to %s\n%!" path)
    out.timeseries_out

(* A --latency / --slo run gets a request-latency recorder; its modeled
   per-op clock and the analytic M/G/1 sweeps price work from the same
   cost table. *)
let make_latency out =
  if out.latency || out.slos <> [] then
    match if out.slos = [] then None else Some (Slo.create out.slos) with
    | slo ->
      Some (Latency.create ?slo ())
    | exception Invalid_argument msg ->
      Printf.eprintf "waflsim: %s\n" msg;
      exit 2
  else None

(* Post-run latency summary on stdout: the latency pane of [top]'s health
   view, so a --latency run reports itself without any output file. *)
let print_latency_summary tel =
  Option.iter
    (fun lat ->
      print_string (Report.latency_pane lat);
      flush stdout)
    (Telemetry.latency tel)

let make_telemetry ?series_capacity out =
  Telemetry.create ~trace_capacity:out.trace_capacity ?series_capacity
    ~tracing:(out.trace_out <> None) ?latency:(make_latency out) ()

(* Telemetry when any output flag is given or latency accounting is
   requested. *)
let optional_telemetry out =
  if
    out.metrics_out <> None || out.trace_out <> None || out.timeseries_out <> None
    || out.latency || out.slos <> []
  then Some (make_telemetry out)
  else None

(* Every subcommand runs through here: print the run line (the flags that
   reproduce the run), open the mmap session its [--mmap] names, and run
   [f] with [tel] installed, flushing the reports (and, with [summary],
   the latency summary) even if [f] raises.  [after] runs once the
   reports are flushed, still inside the session. *)
let with_run ?(summary = true) ?(after = ignore) run out tel f =
  Printf.printf "run: %s\n%!" (Wafl_core.Config.run_to_string run);
  let go () =
    (match tel with
    | None -> f ()
    | Some tel ->
      List.iter (Option.iter check_writable) [ out.metrics_out; out.trace_out; out.timeseries_out ];
      let flush () =
        flush_telemetry out tel;
        if summary then print_latency_summary tel
      in
      Telemetry.with_installed tel (fun () -> Fun.protect ~finally:flush f));
    after ()
  in
  match run.Wafl_core.Config.mmap_dir with
  | Some dir -> Wafl_bitmap.Pagestore.with_mmap_dir dir go
  | None -> go ()

let experiment_cmd name ~doc run_print =
  let run scale out run no_iron_gate =
    if not no_iron_gate then Wafl_core.Fs.enable_registry ();
    with_run run out (optional_telemetry out)
      ~after:(fun () -> if not no_iron_gate then run_iron_gate ())
      (fun () -> run_print scale run)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ scale_arg $ outputs_term $ Wafl_cli.Run_flags.term $ no_iron_gate_arg)

let fig6_cmd =
  experiment_cmd "fig6" ~doc:"AA-cache latency/throughput experiment (Figure 6)"
    (fun scale run -> Fig6.print (Fig6.run ~scale ~run ()))

let fig7_cmd =
  experiment_cmd "fig7" ~doc:"Imbalanced RAID-group aging under OLTP (Figure 7)"
    (fun scale run -> Fig7.print (Fig7.run ~scale ~run ()))

let fig8_cmd =
  experiment_cmd "fig8" ~doc:"SSD AA sizing experiment (Figure 8)"
    (fun scale run -> Fig8.print (Fig8.run ~scale ~run ()))

let fig8_streams_cmd =
  experiment_cmd "fig8-streams"
    ~doc:
      "SSD write-amplification ablation: AA sizing vs write-temperature segregation \
       (multi-stream FTL, wear-aware scoring)"
    (fun scale run -> Fig8_streams.print ~scale (Fig8_streams.run ~scale ~run ()))

let fig9_cmd =
  experiment_cmd "fig9" ~doc:"SMR AZCS-alignment experiment (Figure 9)"
    (fun scale run -> Fig9.print (Fig9.run ~scale ~run ()))

let fig10_cmd =
  experiment_cmd "fig10" ~doc:"TopAA mount-time experiment (Figure 10)"
    (fun scale run -> Fig10.print (Fig10.run ~scale ~run ()))

let scalars_cmd =
  experiment_cmd "scalars" ~doc:"Section 4.1 scalar claims"
    (fun scale run -> Scalars.print (Scalars.run ~scale ~run ()))

let ablation_cmd =
  experiment_cmd "ablation"
    ~doc:"Design-choice ablations (bin width, policy, threshold, cleaner)"
    (fun scale run -> Ablation.print (Ablation.run ~scale ~run ()))

let all_cmd =
  experiment_cmd "all" ~doc:"Run every experiment" (fun scale run ->
      Fig6.print (Fig6.run ~scale ~run ());
      Fig7.print (Fig7.run ~scale ~run ());
      Fig8.print (Fig8.run ~scale ~run ());
      Fig8_streams.print ~scale (Fig8_streams.run ~scale ~run ());
      Fig9.print (Fig9.run ~scale ~run ());
      Fig10.print (Fig10.run ~scale ~run ());
      Scalars.print (Scalars.run ~scale ~run ());
      Ablation.print (Ablation.run ~scale ~run ()))

let crash_matrix_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let cps_arg =
    Arg.(
      value & opt int 3
      & info [ "cps" ] ~docv:"N" ~doc:"Warmup CPs committed before the crashed one.")
  in
  let ops_arg =
    Arg.(value & opt int 400 & info [ "ops" ] ~docv:"N" ~doc:"Staged writes per CP.")
  in
  let no_cleaner_arg =
    Arg.(
      value & flag
      & info [ "no-cleaner" ]
          ~doc:"Skip the segment-cleaner pass before the final CP.")
  in
  let lazy_rebuild_arg =
    Arg.(
      value & flag
      & info [ "lazy-rebuild" ]
          ~doc:
            "Remount each crashed image incrementally: every range and volume comes up \
             stale-but-seeded and materializes its exact cache on first touch (the \
             repair's Iron scan, or the replay CP's allocations) — the \
             immediate-post-failover state the paper measures.  Verifies that lazy \
             mounts recover exactly like eager ones.")
  in
  let verify_mount_arg =
    Arg.(
      value & flag
      & info [ "verify-mount" ]
          ~doc:
            "Verify the persisted pagestore bytes against their CRC integrity sidecars at \
             every post-crash remount: torn and stale (lost-write) pages are detected \
             before the image restore and their ranges/volumes quarantined for rescan.  \
             Only meaningful with $(b,--mmap DIR), where each crash-matrix run \
             gets its own wiped subdirectory and the remount reloads sidecars from disk.")
  in
  let run seed cps ops no_cleaner lazy_rebuild verify_mount out run =
    with_run run out (optional_telemetry out) (fun () ->
        let r =
          Wafl_core.Crash_matrix.run ~run ~with_cleaner:(not no_cleaner) ~lazy_rebuild
            ~verify_mount ~seed ~warmup_cps:cps ~ops_per_cp:ops ()
        in
        Printf.printf "crash matrix: %d crash points enumerated (%d workload runs)\n"
          (List.length r.Wafl_core.Crash_matrix.points) r.Wafl_core.Crash_matrix.runs;
        let counts =
          List.fold_left
            (fun acc p ->
              match List.assoc_opt p acc with
              | Some _ -> List.map (fun (q, m) -> if q = p then (q, m + 1) else (q, m)) acc
              | None -> acc @ [ (p, 1) ])
            [] r.Wafl_core.Crash_matrix.points
        in
        List.iter (fun (p, n) -> Printf.printf "  %-24s x%d\n" p n) counts;
        match r.Wafl_core.Crash_matrix.violations with
        | [] -> Printf.printf "crash matrix: every point recovered clean\n"
        | vs ->
          List.iter
            (fun v -> Format.printf "VIOLATION: %a@." Wafl_core.Crash_matrix.pp_violation v)
            vs;
          Printf.eprintf "waflsim: crash matrix found %d violation(s)\n" (List.length vs);
          exit 1)
  in
  Cmd.v
    (Cmd.info "crash-matrix"
       ~doc:
         "Kill the system at every instrumented CP/cleaner point, remount, repair, and \
          verify recovery invariants (no lost acknowledged op, no double-allocated block, \
          clean Iron check)")
    Term.(
      const run $ seed_arg $ cps_arg $ ops_arg $ no_cleaner_arg $ lazy_rebuild_arg
      $ verify_mount_arg $ outputs_term $ Wafl_cli.Run_flags.term)

(* `waflsim top`: drive an aged random-overwrite system and redraw a
   one-screen health view (current CP phase, picks/s, search ns/block,
   fragmentation trend) every --stats-interval CPs.  The screen is only
   cleared between redraws when stdout is a terminal, so piped output
   stays a readable sequence of frames. *)
let top_cmd =
  let cps_arg =
    Arg.(
      value
      & opt (positive_int "--cps") 120
      & info [ "cps" ] ~docv:"N" ~doc:"Consistency points to run.")
  in
  let ops_arg =
    Arg.(
      value
      & opt (positive_int "--ops") 1000
      & info [ "ops" ] ~docv:"N" ~doc:"Staged client operations per CP.")
  in
  let stats_interval_arg =
    Arg.(
      value
      & opt (positive_int "--stats-interval") 5
      & info [ "stats-interval" ] ~docv:"N" ~doc:"Redraw the health view every $(docv) CPs.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let ssd_arg =
    Arg.(
      value & flag
      & info [ "ssd" ]
          ~doc:
            "Run the workload on an all-SSD aggregate (erase-block AAs) instead of the \
             default HDD one; the health view then shows the FTL's write amplification, \
             per-stream relocations and peak erase-block wear.  Combine with \
             $(b,--temp-classes)/$(b,--streams) to watch segregation live.")
  in
  let run scale cps ops interval seed ssd out run =
    (* top always installs telemetry: the health view is the point *)
    let tel = make_telemetry ~series_capacity:(max 1024 cps) out in
    let tty = Unix.isatty Unix.stdout in
    let redraw () =
      if tty then print_string "\027[2J\027[H";
      print_string (Report.health tel);
      flush stdout
    in
    let samples = ref 0 in
    Telemetry.on_sample tel
      (Some
         (fun () ->
           incr samples;
           if !samples mod interval = 0 then redraw ()));
    with_run ~summary:false run out (Some tel) (fun () ->
        let rg =
          if ssd then Common.ssd_raid_group scale ~aa_stripes:None
          else Common.hdd_raid_group scale
        in
        let agg_blocks = rg.Wafl_core.Config.data_devices * rg.Wafl_core.Config.device_blocks in
        let config =
          Wafl_core.Config.make ~raid_groups:[ rg ]
            ~vols:
              [ { Wafl_core.Config.name = "lun"; blocks = agg_blocks * 9 / 8;
                  aa_blocks = Some 1024; policy = Wafl_core.Config.Best_aa } ]
            ~aggregate_policy:Wafl_core.Config.Best_aa ~run ~seed ()
        in
        let fs = Wafl_core.Fs.create config in
        let vol = Wafl_core.Fs.vol fs "lun" in
        let rng = Wafl_util.Rng.split (Wafl_core.Fs.rng fs) in
        let spec =
          { Wafl_workload.Aging.fill_fraction = 0.55; fragmentation_cps = 20;
            writes_per_cp = 1000; file = 1 }
        in
        let working_set = Wafl_workload.Aging.age fs vol ~spec ~rng () in
        let workload =
          Wafl_workload.Random_overwrite.create fs vol ~working_set
            ~rng:(Wafl_util.Rng.split rng) ()
        in
        for _ = 1 to cps do
          ignore (Wafl_workload.Random_overwrite.step workload ops)
        done;
        redraw ())
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run an aged random-overwrite workload and render a live one-screen health view \
          (CP phase spans, picks/s, search ns/block, free-space fragmentation trend)")
    Term.(
      const run $ scale_arg $ cps_arg $ ops_arg $ stats_interval_arg $ seed_arg $ ssd_arg
      $ outputs_term $ Wafl_cli.Run_flags.term)

(* Bare `waflsim --metrics-out m.json` (no subcommand) runs the scalar
   suite — the cheapest end-to-end workload that exercises every
   instrumented layer — so the telemetry flags work without picking an
   experiment.  Without any output flag the default remains the help page. *)
let default =
  let run scale out run =
    match optional_telemetry out with
    | None -> `Help (`Pager, None)
    | tel ->
      with_run run out tel (fun () -> Scalars.print (Scalars.run ~scale ~run ()));
      `Ok ()
  in
  Term.(ret (const run $ scale_arg $ outputs_term $ Wafl_cli.Run_flags.term))

let () =
  let info = Cmd.info "waflsim" ~doc:"WAFL free-block search reproduction experiments" in
  exit (Cmd.eval (Cmd.group ~default info [ fig6_cmd; fig7_cmd; fig8_cmd; fig8_streams_cmd; fig9_cmd; fig10_cmd; scalars_cmd; ablation_cmd; all_cmd; crash_matrix_cmd; top_cmd ]))
