open Cmdliner
module Config = Wafl_core.Config
module Fault = Wafl_fault.Fault

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Unix.mkdir dir 0o755
  end

(* An mmap directory is checked (and created) while the command line is
   parsed, so a bad DIR never becomes a half-finished run.  An empty DIR
   is left to [Config.validate]. *)
let prepare_mmap_dir dir =
  let fail fmt = Printf.ksprintf (fun m -> Error (`Msg (dir ^ m))) fmt in
  if dir = "" then Ok ()
  else if not (Sys.file_exists dir) then
    match mkdir_p dir with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      fail ": cannot create directory (%s)" (Unix.error_message e)
  else if not (Sys.is_directory dir) then fail " exists and is not a directory"
  else
    match Unix.access dir [ Unix.W_OK ] with
    | () -> Ok ()
    | exception Unix.Unix_error _ -> fail " is not writable"

let mmap_conv =
  let parse dir = Result.map (fun () -> dir) (prepare_mmap_dir dir) in
  Arg.conv ~docv:"DIR" (parse, Format.pp_print_string)

let fault_conv =
  let parse = function
    | "default" -> Ok Fault.default_spec
    | s -> Result.map_error (fun m -> `Msg m) (Fault.spec_of_string s)
  in
  let print fmt s = Format.pp_print_string fmt (Fault.spec_to_string s) in
  Arg.conv ~docv:"SPEC" (parse, print)

let d = Config.default_run

let mmap_dir =
  let doc =
    "File-map every allocation bitmap, activemap and TopAA block under directory \
     $(docv), created if missing — a rerun over the same directory remounts the \
     persisted free-space state.  Without it the same off-heap stores are anonymous \
     memory.  $(docv) is validated when the command line is parsed: a path that exists \
     but is not a writable directory is rejected before anything runs.  Allocation \
     behaviour is byte-identical either way."
  in
  Arg.(value & opt (some mmap_conv) d.Config.mmap_dir & info [ "mmap" ] ~docv:"DIR" ~doc)

let scrub_rate =
  let doc =
    "Run the background pagestore scrubber: after every CP, verify $(docv) integrity \
     pages (round-robin across every tracked bitmap store) against their CRC sidecars \
     and self-heal any torn or stale page found — the overlapped ranges/volumes are \
     rescanned and the bitmap-vs-container disagreement settled by container-authority \
     repair.  A full sweep of N tracked pages takes ceil(N/$(docv)) CPs.  Requires \
     $(b,--mmap DIR); the default of 0 disables scrubbing."
  in
  Arg.(value & opt int d.Config.scrub_rate & info [ "scrub-rate" ] ~docv:"N" ~doc)

let faults =
  let doc =
    "Attach a device fault-injection profile to every simulated system.  $(docv) is \
     comma-separated: $(b,seed=N,transient=P,burst=N,torn=P,spike=P:US,retries=N,\
     backoff=US) plus repeatable $(b,bad=DEV:START+LEN), $(b,offline=DEV@IOS), \
     $(b,degraded=DEV@IOS), $(b,rot=STORE:PAGE[@GEN]) and $(b,lost=STORE:PAGE[@GEN]).  \
     $(b,default) selects the default transient profile."
  in
  Arg.(value & opt (some fault_conv) d.Config.faults & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let temp_classes =
  let doc =
    "Classify every staged write into one of $(docv) write-temperature classes (by the \
     lifespan of the version it overwrites) and give each class its own \
     allocation-cursor row: 1 = no segregation (the default), 2 = hot/other, 3 = \
     hot/warm/cold, 4 = hot/warm/cold/metafile.  On SSD ranges each class flushes to its \
     own FTL write stream (see $(b,--streams))."
  in
  Arg.(
    value
    & opt int d.Config.streams.Config.temp_classes
    & info [ "temp-classes" ] ~docv:"N" ~doc)

let ssd_streams =
  let doc =
    "Create every simulated SSD FTL with $(docv) write streams (1..8); the device's \
     open-erase-block budget is partitioned across them so blocks of different \
     temperature classes never share an erase block."
  in
  Arg.(value & opt int d.Config.streams.Config.ssd_streams & info [ "streams" ] ~docv:"N" ~doc)

let wear_bias =
  let doc =
    "Wear-aware AA scoring strength (0..255): at each CP boundary, demote an AA's \
     cache-filed score by $(docv) units per wear bin its worst erase block sits above \
     the device minimum.  0 (the default) keeps scoring wear-blind."
  in
  Arg.(value & opt int d.Config.streams.Config.wear_bias & info [ "wear-bias" ] ~docv:"N" ~doc)

let term =
  let make mmap_dir scrub_rate faults temp_classes ssd_streams wear_bias =
    let streams = { d.Config.streams with Config.temp_classes; ssd_streams; wear_bias } in
    Config.validate { Config.mmap_dir; scrub_rate; faults; streams }
    |> Result.map_error Config.run_error_to_string
  in
  Term.(
    term_result' ~usage:true
      (const make $ mmap_dir $ scrub_rate $ faults $ temp_classes $ ssd_streams
     $ wear_bias))
