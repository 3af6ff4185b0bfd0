open Wafl_util
open Wafl_device
open Wafl_core
open Wafl_sim
open Wafl_workload

type variant = Small_aa | Large_aa | Large_aa_segregated

let variant_name = function
  | Small_aa -> "HDD-sized AA, 1 stream"
  | Large_aa -> "erase-block AA, 1 stream"
  | Large_aa_segregated -> "erase-block AA, 4 classes / 4 streams"

let stream_spec_of = function
  | Small_aa | Large_aa -> Config.default_streams
  | Large_aa_segregated ->
    { Config.temp_classes = 4; ssd_streams = 4; wear_bias = 2; meta_file = Some 0 }

type stream_row = {
  stream : int;
  host : int;
  device : int;
  relocated : int;
  erases : int;
  wa : float;
}

type result = {
  variant : variant;
  aa_stripes : int;
  spec : Config.stream_spec;
  curve : Load.curve;
  write_amp : float;
  per_stream : stream_row list;
  wear_min : int;
  wear_max : int;
}

(* skew: 90% of the overwrites land on 2% of the working set.  The hot
   region must be small enough that its blocks are rewritten many times
   within the run — temperature is only observable once lifespans
   bimodalize, and a block overwritten less than once per run contributes
   a single, aging-dominated lifespan sample that looks like every other
   block's.  Uniform traffic has no temperature to find at all. *)
let hot_fraction = 0.02
let hot_weight = 0.9

(* a trickle of "metadata" traffic on a dedicated file, cycling a small
   region so it overwrites steadily; routed to the Meta class when
   segregation is on, mixed in with everything else when it is off *)
let meta_file = 0
let meta_region = 256
let meta_writes_per_cp = 16

let aa_stripes_of scale = function
  | Small_aa -> (Common.ssd_profile scale).Profile.erase_block_blocks / 4
  | Large_aa | Large_aa_segregated ->
    Wafl_aa.Sizing.ssd_stripes ~erase_blocks_per_aa:1 (Common.ssd_profile scale)

(* per-CP traffic scales with the erase-block size (full-scale blocks are
   8x quick's): segregation only wins while a class's dead generation
   outpaces its AA fill — at [ops_per_cp] too low for the geometry, the
   hot row reopens AAs whose newest generation is still half-live and
   relocates its own recent writes *)
let measurement scale =
  match (scale : Common.scale) with
  | Common.Quick -> (100, 1000)
  | Common.Full -> (200, 8000)

let aging_spec scale =
  match (scale : Common.scale) with
  | Common.Quick ->
    { Aging.fill_fraction = 0.85; fragmentation_cps = 120; writes_per_cp = 2000; file = 1 }
  | Common.Full ->
    { Aging.fill_fraction = 0.85; fragmentation_cps = 250; writes_per_cp = 8000; file = 1 }

let run_variant ?(run = Config.default_run) scale variant =
  let aa_stripes = aa_stripes_of scale variant in
  let spec = stream_spec_of variant in
  let rg = Common.ssd_raid_group scale ~aa_stripes:(Some aa_stripes) in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "lun"; blocks = agg_blocks * 9 / 8; aa_blocks = Some 1024;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ~run:{ run with Config.streams = spec } ~seed:8009 ()
  in
  let fs = Fs.create config in
  let vol = Fs.vol fs "lun" in
  let rng = Rng.split (Fs.rng fs) in
  (* age with the same skewed traffic the measurement applies (unlike fig8's
     uniform churn): the measurement must start from the skew's steady
     state, where hot erase blocks are already mostly-dead on re-pick *)
  let aspec = aging_spec scale in
  let working_set = Aging.fill fs vol aspec in
  let churn =
    Random_overwrite.create fs vol ~working_set ~blocks_per_op:1 ~file:aspec.Aging.file
      ~hot_fraction ~hot_weight ~rng:(Rng.split rng) ()
  in
  for _ = 1 to aspec.Aging.fragmentation_cps do
    ignore (Random_overwrite.step churn aspec.Aging.writes_per_cp)
  done;
  let range0 = (Aggregate.ranges (Fs.aggregate fs)).(0) in
  let ftl =
    match range0.Aggregate.device with
    | Aggregate.Ssd_sim f -> f
    | Aggregate.Hdd_sim _ | Aggregate.Smr_sim _ | Aggregate.Object_sim _ ->
      invalid_arg "fig8-streams: SSD rig expected"
  in
  Ftl.reset_stats ftl;
  let workload =
    Random_overwrite.create fs vol ~working_set ~blocks_per_op:1 ~hot_fraction
      ~hot_weight ~rng:(Rng.split rng) ()
  in
  let meta_cursor = ref 0 in
  let step n =
    for _ = 1 to meta_writes_per_cp do
      Fs.stage_write fs ~vol ~file:meta_file ~offset:(!meta_cursor mod meta_region);
      incr meta_cursor
    done;
    Random_overwrite.step workload n
  in
  let cps, ops_per_cp = measurement scale in
  let costs = Load.measure_service_time ~cps ~ops_per_cp ~step () in
  let ns = Ftl.streams ftl in
  let per_stream =
    List.init ns (fun s ->
        let st = Ftl.stream_stats ftl s in
        {
          stream = s;
          host = st.Ftl.host_pages_written;
          device = st.Ftl.device_pages_written;
          relocated = st.Ftl.relocated_pages;
          erases = st.Ftl.erases;
          wa = Ftl.stream_write_amplification ftl s;
        })
  in
  let wear_min, wear_max = Ftl.wear_spread ftl in
  {
    variant;
    aa_stripes;
    spec;
    curve = Load.sweep ~label:(variant_name variant) costs;
    write_amp = Ftl.write_amplification ftl;
    per_stream;
    wear_min;
    wear_max;
  }

let run ?(scale = Common.Quick) ?run () =
  List.map (run_variant ?run scale) [ Small_aa; Large_aa; Large_aa_segregated ]

let find results v = List.find (fun r -> r.variant = v) results

let print ?(scale = Common.Quick) results =
  Common.banner
    "Figure 8 (streams): write amplification — AA size vs temperature segregation \
     (all-SSD, aged to 85%, skewed 4KiB overwrites)";
  List.iter
    (fun r ->
      Common.kv
        (Printf.sprintf "%s:" (variant_name r.variant))
        (Printf.sprintf
           "aa_stripes=%d classes=%d streams=%d wear_bias=%d WA=%.3f wear=%d..%d \
            peak=%.0f ops/s"
           r.aa_stripes r.spec.Config.temp_classes r.spec.Config.ssd_streams
           r.spec.Config.wear_bias r.write_amp r.wear_min r.wear_max
           (Load.peak_throughput r.curve));
      List.iter
        (fun s ->
          Common.kv
            (Printf.sprintf "  stream %d" s.stream)
            (Printf.sprintf "host=%d device=%d reloc=%d erases=%d WA=%.3f" s.host
               s.device s.relocated s.erases s.wa))
        r.per_stream)
    results;
  let small = find results Small_aa
  and large = find results Large_aa
  and seg = find results Large_aa_segregated in
  Printf.printf "\n";
  Common.paper_vs_measured ~metric:"WA, erase-block AA (paper fig 8)"
    ~paper:"1.46"
    ~measured:(Printf.sprintf "%.3f (small AA %.3f)" large.write_amp small.write_amp)
    ~ok:(large.write_amp < small.write_amp);
  (* The absolute 1.46 comparison is a quick-scale claim: at full scale
     this FTL's worst-case relocation pricing inflates every fig-8 WA
     figure well past the paper's (9.63/3.28 for plain fig8 — see
     EXPERIMENTS.md), so there the gate is the segregation win itself. *)
  let ok =
    seg.write_amp < large.write_amp
    && (match scale with Common.Quick -> seg.write_amp < 1.46 | Common.Full -> true)
  in
  Common.paper_vs_measured ~metric:"WA, segregated vs unsegregated"
    ~paper:"below 1.46"
    ~measured:
      (Printf.sprintf "%.3f -> %.3f (%s)" large.write_amp seg.write_amp
         (Common.pct seg.write_amp large.write_amp))
    ~ok
