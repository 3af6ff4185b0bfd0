(* waflsim: run individual paper experiments from the command line. *)

open Cmdliner
open Wafl_experiments
open Wafl_telemetry

let scale_arg =
  let doc = "Experiment scale: 'quick' (seconds, CI-sized) or 'full'." in
  Arg.(value & opt string "quick" & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let metrics_out_arg =
  let doc =
    "Write a JSON telemetry report (counters, gauges, span totals, the per-CP series \
     schema) to $(docv) when the run finishes.  With $(b,.csv) as the extension the \
     report is rendered as CSV rows, with $(b,.prom) as Prometheus text."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* --metrics-format is validated entirely at parse time (like
   --temp-classes): a typo'd format fails the command line with the legal
   choices spelled out, never a finished run with a misrendered file. *)
type metrics_format = Mf_auto | Mf_json | Mf_csv | Mf_prom

let metrics_format_conv =
  let parse = function
    | "auto" -> Ok Mf_auto
    | "json" -> Ok Mf_json
    | "csv" -> Ok Mf_csv
    | "prom" | "prometheus" -> Ok Mf_prom
    | s ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown metrics format %S: expected prom|json|csv (or auto, the default, \
              which picks by the --metrics-out extension)"
             s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with
      | Mf_auto -> "auto"
      | Mf_json -> "json"
      | Mf_csv -> "csv"
      | Mf_prom -> "prom")
  in
  Arg.conv ~docv:"FORMAT" (parse, print)

let metrics_format_arg =
  let doc =
    "Rendering for $(b,--metrics-out): $(b,json), $(b,csv) or $(b,prom) (Prometheus \
     text exposition 0.0.4, including per-op latency histograms and quantile gauges \
     when $(b,--latency) is on).  The default $(b,auto) picks by file extension \
     ($(b,.csv) -> csv, $(b,.prom) -> prom, otherwise json)."
  in
  Arg.(
    value
    & opt metrics_format_conv Mf_auto
    & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

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

(* Like [positive_int] but with an inclusive range, for flags whose legal
   values Config.make would otherwise reject mid-run. *)
let bounded_int flag ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some n ->
      Error (`Msg (Printf.sprintf "%s must be in %d..%d (got %d)" flag lo hi n))
    | None ->
      Error
        (`Msg (Printf.sprintf "%s expects an integer in %d..%d (got %S)" flag lo hi s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let temp_classes_arg =
  let doc =
    "Classify every staged write into one of $(docv) write-temperature classes \
     (by the lifespan of the version it overwrites) and give each class its own \
     allocation-cursor row: 1 = no segregation (the default), 2 = hot/other, \
     3 = hot/warm/cold, 4 = hot/warm/cold/metafile.  On SSD ranges each class \
     flushes to its own FTL write stream (see $(b,--streams))."
  in
  Arg.(
    value
    & opt (bounded_int "--temp-classes" ~lo:1 ~hi:4) 1
    & info [ "temp-classes" ] ~docv:"N" ~doc)

let streams_arg =
  let doc =
    "Create every simulated SSD FTL with $(docv) write streams (1..8); the \
     device's open-erase-block budget is partitioned across them so blocks of \
     different temperature classes never share an erase block."
  in
  Arg.(
    value
    & opt (bounded_int "--streams" ~lo:1 ~hi:8) 1
    & info [ "streams" ] ~docv:"N" ~doc)

let wear_bias_arg =
  let doc =
    "Wear-aware AA scoring strength: at each CP boundary, demote an AA's \
     cache-filed score by $(docv) units per wear bin its worst erase block sits \
     above the device minimum.  0 (the default) keeps scoring wear-blind."
  in
  Arg.(
    value
    & opt (bounded_int "--wear-bias" ~lo:0 ~hi:255) 0
    & info [ "wear-bias" ] ~docv:"N" ~doc)

let with_streams ~temp_classes ~streams ~wear_bias f =
  if temp_classes = 1 && streams = 1 && wear_bias = 0 then f ()
  else
    Wafl_core.Config.with_default_streams
      { Wafl_core.Config.temp_classes; ssd_streams = streams; wear_bias;
        meta_file = None }
      f

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

let fault_spec_arg =
  let doc =
    "Install a device fault-injection profile consulted by every device simulator.  \
     $(docv) is comma-separated: $(b,seed=N,transient=P,burst=N,torn=P,spike=P:US,\
     retries=N,backoff=US) plus repeatable $(b,bad=DEV:START+LEN), $(b,offline=DEV@IOS) \
     and $(b,degraded=DEV@IOS).  $(b,default) selects the default transient profile."
  in
  Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let jobs_arg =
  let doc =
    "Install a process-wide domain pool of $(docv) workers.  Every parallel-capable \
     stage — mount-time cache rebuilds, Iron's scans, the CP's free commits and \
     device flushes, large-AA harvests — shards over the pool, with results \
     bit-identical to a serial run at any $(docv).  The default of 1 keeps every \
     path serial."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let with_jobs jobs f =
  if jobs < 1 then begin
    Printf.eprintf "waflsim: --jobs must be at least 1 (got %d)\n" jobs;
    exit 2
  end
  else if jobs = 1 then f ()
  else begin
    Wafl_par.Par.install ~jobs;
    Fun.protect ~finally:Wafl_par.Par.uninstall f
  end

(* --backend is validated entirely at parse time: a bad PATH fails the
   command line, never a half-finished run.  An absent mmap directory is
   created here (mkdir -p); an existing one must be a writable directory. *)
type backend_choice =
  | Default_backend of Wafl_bitmap.Pagestore.backend
  | Mmap_dir of string

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Unix.mkdir dir 0o755
  end

let backend_conv =
  let parse s =
    if String.length s >= 5 && String.sub s 0 5 = "mmap:" then begin
      let dir = String.sub s 5 (String.length s - 5) in
      if dir = "" then Error (`Msg "mmap: expects a directory path (mmap:PATH)")
      else if Sys.file_exists dir then
        if not (Sys.is_directory dir) then
          Error (`Msg (Printf.sprintf "mmap:%s exists and is not a directory" dir))
        else (
          match Unix.access dir [ Unix.W_OK ] with
          | () -> Ok (Mmap_dir dir)
          | exception Unix.Unix_error _ ->
            Error (`Msg (Printf.sprintf "mmap:%s is not writable" dir)))
      else
        match mkdir_p dir with
        | () -> Ok (Mmap_dir dir)
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (`Msg
              (Printf.sprintf "mmap:%s: cannot create directory (%s)" dir
                 (Unix.error_message e)))
    end
    else
      match Wafl_bitmap.Pagestore.backend_of_string s with
      | Some b -> Ok (Default_backend b)
      | None ->
        Error (`Msg (Printf.sprintf "unknown backend %S (expected heap|bigarray|mmap:PATH)" s))
  in
  let print fmt = function
    | Default_backend b ->
      Format.pp_print_string fmt (Wafl_bitmap.Pagestore.backend_name b)
    | Mmap_dir dir -> Format.fprintf fmt "mmap:%s" dir
  in
  Arg.conv ~docv:"BACKEND" (parse, print)

let backend_arg =
  let doc =
    "Page-store backend for every allocation bitmap, activemap and TopAA block: \
     $(b,heap) (OCaml bytes, the default), $(b,bigarray) (off-heap words the GC \
     never scans) or $(b,mmap:PATH) (bigarray words file-mapped under directory \
     PATH, created if missing — a rerun over the same directory remounts the \
     persisted free-space state).  PATH is validated when the command line is \
     parsed: a path that exists but is not a writable directory is rejected \
     before anything runs.  The choice is process-wide; allocation behaviour is \
     byte-identical across backends."
  in
  Arg.(
    value
    & opt backend_conv (Default_backend Wafl_bitmap.Pagestore.Heap)
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let with_backend choice f =
  match choice with
  | Default_backend b -> Wafl_bitmap.Pagestore.with_default b f
  | Mmap_dir dir ->
    Wafl_bitmap.Pagestore.with_default Wafl_bitmap.Pagestore.Bigarray (fun () ->
        Wafl_bitmap.Pagestore.with_mmap_dir dir f)

let scrub_rate_arg =
  let doc =
    "Enable the background pagestore scrubber: after every CP, verify $(docv) \
     integrity pages (round-robin across every tracked bitmap store) against \
     their CRC sidecars and self-heal any torn or stale page found — the \
     overlapped ranges/volumes are rescanned and the bitmap-vs-container \
     disagreement settled by container-authority repair.  A full sweep of N \
     tracked pages takes ceil(N/$(docv)) CPs.  Only meaningful with \
     $(b,--backend mmap:PATH); the default of 0 disables scrubbing."
  in
  Arg.(value & opt int 0 & info [ "scrub-rate" ] ~docv:"N" ~doc)

let with_scrub rate f =
  if rate < 0 then begin
    Printf.eprintf "waflsim: --scrub-rate must be >= 0 (got %d)\n" rate;
    exit 2
  end
  else if rate = 0 then f ()
  else begin
    Wafl_core.Scrub.enable ~rate ();
    Fun.protect ~finally:Wafl_core.Scrub.disable f
  end

let alloc_domains_arg =
  let doc =
    "Drive write allocation with $(docv) concurrent domains: each domain pops \
     physical blocks from its own lock-free harvest ring, claims AAs atomically \
     through the shared cache pick path, and steals byte-aligned ring suffixes \
     from other domains when it runs dry.  The committed free-space state is \
     identical to a serial run at any $(docv); the default of 1 keeps allocation \
     serial."
  in
  Arg.(value & opt int 1 & info [ "alloc-domains" ] ~docv:"N" ~doc)

let with_alloc_domains n f =
  if n < 1 then begin
    Printf.eprintf "waflsim: --alloc-domains must be at least 1 (got %d)\n" n;
    exit 2
  end
  else if n = 1 then f ()
  else begin
    Wafl_core.Write_alloc.install_alloc_pool ~jobs:n;
    Fun.protect ~finally:Wafl_core.Write_alloc.uninstall_alloc_pool f
  end

let no_iron_gate_arg =
  let doc =
    "Skip the post-run consistency gate (by default every system the run built is checked \
     with WAFL Iron and any finding other than advisory orphan blocks exits nonzero)."
  in
  Arg.(value & flag & info [ "no-iron-gate" ] ~doc)

let parse_scale s =
  match Common.scale_of_string s with
  | Some scale -> scale
  | None -> begin
    Printf.eprintf "unknown scale %S (expected quick|full)\n" s;
    exit 2
  end

let parse_fault_spec = function
  | None -> None
  | Some "default" -> Some Wafl_fault.Fault.default_spec
  | Some s -> (
    match Wafl_fault.Fault.spec_of_string s with
    | Ok spec -> Some spec
    | Error msg ->
      Printf.eprintf "waflsim: bad --fault-spec: %s\n" msg;
      exit 2)

let with_fault_spec spec f =
  match spec with
  | None -> f ()
  | Some spec ->
    Wafl_fault.Fault.install_default spec;
    Fun.protect ~finally:Wafl_fault.Fault.uninstall_default f

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

let flush_telemetry ~metrics_out ~metrics_format ~trace_out ~timeseries_out tel =
  Option.iter
    (fun path ->
      let render =
        match metrics_format with
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
    metrics_out;
  Option.iter
    (fun path ->
      let render =
        if Filename.check_suffix path ".json" then Export.trace_json else Export.trace_csv
      in
      write_file path (render tel);
      Printf.printf "telemetry: trace written to %s\n%!" path)
    trace_out;
  Option.iter
    (fun path ->
      let render =
        if Filename.check_suffix path ".csv" then Export.timeseries_csv
        else Export.timeseries_json
      in
      write_file path (render tel);
      Printf.printf "telemetry: time series written to %s\n%!" path)
    timeseries_out

(* A --latency / --slo run gets a request-latency recorder seeded with the
   sim's cost constants, so the modeled per-op clock and the analytic
   M/G/1 sweeps price the same work identically. *)
let make_latency ~latency ~slos =
  if latency || slos <> [] then
    match if slos = [] then None else Some (Slo.create slos) with
    | slo ->
      Some
        (Latency.create
           ~model:(Wafl_sim.Cost_model.latency_model Wafl_sim.Cost_model.default)
           ?slo ())
    | exception Invalid_argument msg ->
      Printf.eprintf "waflsim: %s\n" msg;
      exit 2
  else None

(* Post-run latency summary on stdout: headline quantiles, per-volume
   rows, SLO burn state and the slowest tail exemplars with their blame
   phase — so a --latency run reports itself without any output file. *)
let print_latency_summary tel =
  match Telemetry.latency tel with
  | None -> ()
  | Some lat when Latency.ops_recorded lat = 0 ->
    Printf.printf "latency: no ops recorded\n%!"
  | Some lat ->
    let p50, p99, p999 = Latency.quantiles_ms lat in
    Printf.printf "latency: %d ops over %d CPs  p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n"
      (Latency.ops_recorded lat) (Latency.cps_recorded lat) p50 p99 p999;
    List.iter
      (fun (slot, name) ->
        let p50, p99, p999 = Latency.quantiles_ms ~vol:slot lat in
        Printf.printf "  vol %-14s p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n" name p50 p99
          p999)
      (Latency.vols lat);
    List.iter
      (fun r ->
        Printf.printf "  slo %-14s burn fast %.2f  slow %.2f%s\n" r.Slo.r_name
          r.Slo.r_burn_fast r.Slo.r_burn_slow
          (if r.Slo.r_breach then "  ** BREACH **" else ""))
      (Latency.last_slo_reports lat);
    List.iteri
      (fun i ex ->
        if i < 3 then
          Printf.printf "  tail %.2f ms  %s/%s  cp %d  %s\n"
            (float_of_int ex.Latency.ex_ns /. 1e6)
            (Latency.op_name ex.Latency.ex_op)
            ex.Latency.ex_vol_name ex.Latency.ex_cp
            (Latency.phase_stack ex.Latency.ex_phase))
      (Latency.exemplars lat);
    flush stdout

(* Run [f] with a telemetry instance installed when any output flag is
   given or latency accounting is requested; flush the reports afterwards
   even if [f] raises. *)
let with_telemetry ~metrics_out ~metrics_format ~trace_out ~trace_capacity ~timeseries_out
    ~latency ~slos f =
  let lat = make_latency ~latency ~slos in
  match (metrics_out, trace_out, timeseries_out, lat) with
  | None, None, None, None -> f ()
  | _ ->
    if trace_capacity <= 0 then begin
      Printf.eprintf "waflsim: --trace-capacity must be positive (got %d)\n" trace_capacity;
      exit 2
    end;
    List.iter (Option.iter check_writable) [ metrics_out; trace_out; timeseries_out ];
    let tel =
      Telemetry.create ~trace_capacity ~tracing:(trace_out <> None) ?latency:lat ()
    in
    let flush () =
      flush_telemetry ~metrics_out ~metrics_format ~trace_out ~timeseries_out tel;
      print_latency_summary tel
    in
    Telemetry.with_installed tel (fun () -> Fun.protect ~finally:flush f)

let experiment_cmd name ~doc run_print =
  let run s metrics_out metrics_format trace_out trace_capacity timeseries_out latency
      slos fault_spec no_iron_gate jobs backend alloc_domains scrub_rate temp_classes
      streams wear_bias =
    with_streams ~temp_classes ~streams ~wear_bias (fun () ->
    with_backend backend (fun () ->
    with_jobs jobs (fun () ->
    with_alloc_domains alloc_domains (fun () ->
    with_scrub scrub_rate (fun () ->
        with_fault_spec (parse_fault_spec fault_spec) (fun () ->
            if not no_iron_gate then Wafl_core.Fs.enable_registry ();
            with_telemetry ~metrics_out ~metrics_format ~trace_out ~trace_capacity
              ~timeseries_out ~latency ~slos
              (fun () -> run_print (parse_scale s));
            if not no_iron_gate then run_iron_gate ()))))))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ scale_arg $ metrics_out_arg $ metrics_format_arg $ trace_out_arg
      $ trace_capacity_arg $ timeseries_out_arg $ latency_arg $ slo_arg $ fault_spec_arg
      $ no_iron_gate_arg $ jobs_arg $ backend_arg $ alloc_domains_arg $ scrub_rate_arg
      $ temp_classes_arg $ streams_arg $ wear_bias_arg)

let fig6_cmd =
  experiment_cmd "fig6" ~doc:"AA-cache latency/throughput experiment (Figure 6)"
    (fun scale -> Fig6.print (Fig6.run ~scale ()))

let fig7_cmd =
  experiment_cmd "fig7" ~doc:"Imbalanced RAID-group aging under OLTP (Figure 7)"
    (fun scale -> Fig7.print (Fig7.run ~scale ()))

let fig8_cmd =
  experiment_cmd "fig8" ~doc:"SSD AA sizing experiment (Figure 8)"
    (fun scale -> Fig8.print (Fig8.run ~scale ()))

let fig8_streams_cmd =
  experiment_cmd "fig8-streams"
    ~doc:
      "SSD write-amplification ablation: AA sizing vs write-temperature segregation \
       (multi-stream FTL, wear-aware scoring)"
    (fun scale -> Fig8_streams.print ~scale (Fig8_streams.run ~scale ()))

let fig9_cmd =
  experiment_cmd "fig9" ~doc:"SMR AZCS-alignment experiment (Figure 9)"
    (fun scale -> Fig9.print (Fig9.run ~scale ()))

let fig10_cmd =
  experiment_cmd "fig10" ~doc:"TopAA mount-time experiment (Figure 10)"
    (fun scale -> Fig10.print (Fig10.run ~scale ()))

let scalars_cmd =
  experiment_cmd "scalars" ~doc:"Section 4.1 scalar claims"
    (fun scale -> Scalars.print (Scalars.run ~scale ()))

let ablation_cmd =
  experiment_cmd "ablation"
    ~doc:"Design-choice ablations (bin width, policy, threshold, cleaner)"
    (fun scale -> Ablation.print (Ablation.run ~scale ()))

let all_cmd =
  experiment_cmd "all" ~doc:"Run every experiment" (fun scale ->
      Fig6.print (Fig6.run ~scale ());
      Fig7.print (Fig7.run ~scale ());
      Fig8.print (Fig8.run ~scale ());
      Fig8_streams.print ~scale (Fig8_streams.run ~scale ());
      Fig9.print (Fig9.run ~scale ());
      Fig10.print (Fig10.run ~scale ());
      Scalars.print (Scalars.run ~scale ());
      Ablation.print (Ablation.run ~scale ()))

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
  let foreground_rebuild_arg =
    Arg.(
      value & flag
      & info [ "foreground-rebuild" ]
          ~doc:
            "Remount each crashed image on its seeded TopAA caches alone (no background \
             full rebuild) — verifies recovery in the immediate-post-failover state the \
             paper measures.")
  in
  let lazy_rebuild_arg =
    Arg.(
      value & flag
      & info [ "lazy-rebuild" ]
          ~doc:
            "Remount each crashed image incrementally: every range and volume comes up \
             stale-but-seeded and materializes its exact cache on first touch (the \
             repair's Iron scan, or the replay CP's allocations).  Verifies that lazy \
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
             Only meaningful with $(b,--backend mmap:PATH), where each crash-matrix run \
             gets its own wiped subdirectory and the remount reloads sidecars from disk.")
  in
  let run seed cps ops no_cleaner foreground_rebuild lazy_rebuild verify_mount fault_spec
      jobs backend alloc_domains scrub_rate metrics_out metrics_format trace_out
      trace_capacity timeseries_out latency slos =
    with_backend backend (fun () ->
    with_jobs jobs (fun () ->
    with_alloc_domains alloc_domains (fun () ->
    with_scrub scrub_rate (fun () ->
    with_fault_spec (parse_fault_spec fault_spec) (fun () ->
    with_telemetry ~metrics_out ~metrics_format ~trace_out ~trace_capacity ~timeseries_out
      ~latency ~slos (fun () ->
        let r =
          Wafl_core.Crash_matrix.run ~with_cleaner:(not no_cleaner)
            ~background_rebuild:(not foreground_rebuild) ~lazy_rebuild
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
          exit 1))))))
  in
  Cmd.v
    (Cmd.info "crash-matrix"
       ~doc:
         "Kill the system at every instrumented CP/cleaner point, remount, repair, and \
          verify recovery invariants (no lost acknowledged op, no double-allocated block, \
          clean Iron check)")
    Term.(
      const run $ seed_arg $ cps_arg $ ops_arg $ no_cleaner_arg $ foreground_rebuild_arg
      $ lazy_rebuild_arg $ verify_mount_arg $ fault_spec_arg $ jobs_arg $ backend_arg
      $ alloc_domains_arg $ scrub_rate_arg $ metrics_out_arg $ metrics_format_arg
      $ trace_out_arg $ trace_capacity_arg $ timeseries_out_arg $ latency_arg $ slo_arg)

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
  let run s cps ops interval seed ssd metrics_out metrics_format trace_out trace_capacity
      timeseries_out latency slos fault_spec jobs backend alloc_domains scrub_rate
      temp_classes streams wear_bias =
    let scale = parse_scale s in
    with_streams ~temp_classes ~streams ~wear_bias (fun () ->
    with_backend backend (fun () ->
    with_jobs jobs (fun () ->
    with_alloc_domains alloc_domains (fun () ->
    with_scrub scrub_rate (fun () ->
        with_fault_spec (parse_fault_spec fault_spec) (fun () ->
            List.iter (Option.iter check_writable) [ metrics_out; trace_out; timeseries_out ];
            (* top always installs telemetry: the health view is the point *)
            let tel =
              Telemetry.create ~trace_capacity ~series_capacity:(max 1024 cps)
                ~tracing:(trace_out <> None)
                ?latency:(make_latency ~latency ~slos) ()
            in
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
            Telemetry.with_installed tel (fun () ->
                Fun.protect
                  ~finally:(fun () ->
                    flush_telemetry ~metrics_out ~metrics_format ~trace_out
                      ~timeseries_out tel)
                  (fun () ->
                    let rg =
                      if ssd then Common.ssd_raid_group scale ~aa_stripes:None
                      else Common.hdd_raid_group scale
                    in
                    let agg_blocks =
                      rg.Wafl_core.Config.data_devices * rg.Wafl_core.Config.device_blocks
                    in
                    let config =
                      Wafl_core.Config.make ~raid_groups:[ rg ]
                        ~vols:
                          [ { Wafl_core.Config.name = "lun"; blocks = agg_blocks * 9 / 8;
                              aa_blocks = Some 1024; policy = Wafl_core.Config.Best_aa } ]
                        ~aggregate_policy:Wafl_core.Config.Best_aa ~seed ()
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
                    redraw ())))))))
        )
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run an aged random-overwrite workload and render a live one-screen health view \
          (CP phase spans, picks/s, search ns/block, free-space fragmentation trend)")
    Term.(
      const run $ scale_arg $ cps_arg $ ops_arg $ stats_interval_arg $ seed_arg $ ssd_arg
      $ metrics_out_arg $ metrics_format_arg $ trace_out_arg $ trace_capacity_arg
      $ timeseries_out_arg $ latency_arg $ slo_arg $ fault_spec_arg $ jobs_arg
      $ backend_arg $ alloc_domains_arg $ scrub_rate_arg $ temp_classes_arg $ streams_arg
      $ wear_bias_arg)

(* Bare `waflsim --metrics-out m.json` (no subcommand) runs the scalar
   suite — the cheapest end-to-end workload that exercises every
   instrumented layer — so the telemetry flags work without picking an
   experiment.  Without any output flag the default remains the help page. *)
let default =
  let run s metrics_out metrics_format trace_out trace_capacity timeseries_out latency
      slos jobs backend alloc_domains scrub_rate =
    if
      metrics_out = None && trace_out = None && timeseries_out = None && (not latency)
      && slos = []
    then `Help (`Pager, None)
    else begin
      with_backend backend (fun () ->
          with_jobs jobs (fun () ->
              with_alloc_domains alloc_domains (fun () ->
                  with_scrub scrub_rate (fun () ->
                      with_telemetry ~metrics_out ~metrics_format ~trace_out
                        ~trace_capacity ~timeseries_out ~latency ~slos
                        (fun () -> Scalars.print (Scalars.run ~scale:(parse_scale s) ()))))));
      `Ok ()
    end
  in
  Term.(
    ret
      (const run $ scale_arg $ metrics_out_arg $ metrics_format_arg $ trace_out_arg
     $ trace_capacity_arg $ timeseries_out_arg $ latency_arg $ slo_arg $ jobs_arg
     $ backend_arg $ alloc_domains_arg $ scrub_rate_arg))

let () =
  let info = Cmd.info "waflsim" ~doc:"WAFL free-block search reproduction experiments" in
  exit (Cmd.eval (Cmd.group ~default info [ fig6_cmd; fig7_cmd; fig8_cmd; fig8_streams_cmd; fig9_cmd; fig10_cmd; scalars_cmd; ablation_cmd; all_cmd; crash_matrix_cmd; top_cmd ]))
