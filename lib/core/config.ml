open Wafl_device

type media = Hdd of Profile.hdd | Ssd of Profile.ssd | Smr of Profile.smr

type raid_group_spec = {
  media : media;
  data_devices : int;
  parity_devices : int;
  device_blocks : int;
  aa_stripes : int option;
}

type object_range_spec = {
  profile : Profile.object_store;
  blocks : int;
  aa_blocks : int option;
}

type allocation_policy = Best_aa | Random_aa | First_fit

type vol_spec = {
  name : string;
  blocks : int;
  aa_blocks : int option;
  policy : allocation_policy;
}

type stream_spec = {
  temp_classes : int;
  ssd_streams : int;
  wear_bias : int;
  meta_file : int option;
}

let default_streams =
  { temp_classes = 1; ssd_streams = 1; wear_bias = 0; meta_file = None }

type run = {
  mmap_dir : string option;
  scrub_rate : int;
  faults : Wafl_fault.Fault.spec option;
  streams : stream_spec;
}

let default_run =
  {
    mmap_dir = None;
    scrub_rate = 0;
    faults = None;
    streams = default_streams;
  }

type run_error =
  | Scrub_rate_negative of int
  | Scrub_without_mmap of int
  | Temp_classes_out_of_range of int
  | Streams_out_of_range of int
  | Wear_bias_out_of_range of int
  | Empty_mmap_path

let validate r =
  let s = r.streams in
  if r.scrub_rate < 0 then Error (Scrub_rate_negative r.scrub_rate)
  else if s.temp_classes < 1 || s.temp_classes > 4 then
    Error (Temp_classes_out_of_range s.temp_classes)
  else if s.ssd_streams < 1 || s.ssd_streams > 8 then
    Error (Streams_out_of_range s.ssd_streams)
  else if s.wear_bias < 0 || s.wear_bias > 255 then
    Error (Wear_bias_out_of_range s.wear_bias)
  else
    match r.mmap_dir with
    | Some "" -> Error Empty_mmap_path
    | None when r.scrub_rate > 0 -> Error (Scrub_without_mmap r.scrub_rate)
    | _ -> Ok r

let run_error_to_string = function
  | Scrub_rate_negative n -> Printf.sprintf "--scrub-rate must be >= 0 (got %d)" n
  | Scrub_without_mmap n ->
    Printf.sprintf
      "--scrub-rate %d needs --mmap DIR (only file-mapped stores carry the integrity \
       sidecars the scrubber verifies)"
      n
  | Temp_classes_out_of_range n -> Printf.sprintf "--temp-classes must be in 1..4 (got %d)" n
  | Streams_out_of_range n -> Printf.sprintf "--streams must be in 1..8 (got %d)" n
  | Wear_bias_out_of_range n -> Printf.sprintf "--wear-bias must be in 0..255 (got %d)" n
  | Empty_mmap_path -> "--mmap expects a directory path"

let run_args r =
  let int = string_of_int and s = r.streams in
  let mmap = Option.map (fun d -> ("mmap", d)) r.mmap_dir in
  let fault = Option.map (fun f -> ("fault-spec", Wafl_fault.Fault.spec_to_string f)) r.faults in
  List.concat_map
    (fun (flag, v) -> [ "--" ^ flag; v ])
    (Option.to_list mmap
    @ [ ("scrub-rate", int r.scrub_rate) ]
    @ Option.to_list fault
    @ [ ("temp-classes", int s.temp_classes); ("streams", int s.ssd_streams);
        ("wear-bias", int s.wear_bias) ])

(* Quote only the words a POSIX shell would split or expand, so the
   common line stays readable and a pasted one reproduces the run. *)
let shell_word w =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '/' | ':' | '=' | ',' | '@'
    | '+' ->
      true
    | _ -> false
  in
  if w <> "" && String.for_all plain w then w else Filename.quote w

let run_to_string r = String.concat " " (List.map shell_word (run_args r))

type t = {
  raid_groups : raid_group_spec list;
  object_ranges : object_range_spec list;
  vols : vol_spec list;
  aggregate_policy : allocation_policy;
  rg_score_threshold : int option;
  run : run;
  seed : int;
}

let default_raid_group =
  {
    media = Hdd Profile.default_hdd;
    data_devices = 6;
    parity_devices = 1;
    device_blocks = 65536;
    aa_stripes = None;
  }

let default_vol ~name ~blocks = { name; blocks; aa_blocks = None; policy = Best_aa }

let make ?(raid_groups = [ default_raid_group ]) ?(object_ranges = []) ?(vols = [])
    ?(aggregate_policy = Best_aa) ?rg_score_threshold ?(run = default_run) ?(seed = 42) () =
  match validate run with
  | Error e -> invalid_arg ("Config.make: " ^ run_error_to_string e)
  | Ok run -> { raid_groups; object_ranges; vols; aggregate_policy; rg_score_threshold; run; seed }

let aa_stripes_for spec =
  let media_default =
    match spec.media with
    | Hdd _ -> Wafl_aa.Sizing.default_hdd_stripes
    | Ssd p -> Wafl_aa.Sizing.ssd_stripes p
    | Smr p -> Wafl_aa.Sizing.smr_stripes ~azcs:true p
  in
  let wanted = Option.value spec.aa_stripes ~default:media_default in
  max 1 (min wanted spec.device_blocks)

let media_name = function Hdd _ -> "hdd" | Ssd _ -> "ssd" | Smr _ -> "smr"
