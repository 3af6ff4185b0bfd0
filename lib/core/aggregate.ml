open Wafl_bitmap
open Wafl_raid
open Wafl_device
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry
module Par = Wafl_par.Par

type device_sim =
  | Hdd_sim of Profile.hdd
  | Ssd_sim of Ftl.t
  | Smr_sim of Smr.t * Azcs.tracker array
  | Object_sim of Object_store.t

type range = {
  index : int;
  base : int;
  blocks : int;
  topology : Topology.t;
  geometry : Geometry.t option;
  group : Group.t option;
  device : device_sim;
  scores : int array;
  mutable cache : Cache.t option;
  delta : Score.delta;
  media : Config.media option;
  mutable fault : Wafl_fault.Fault.device option;
  mutable cache_epoch : int;
  owners : int Atomic.t array;
}

(* --- atomic AA claims (multi-writer allocation front-end) ---

   One slot per AA holding the claiming cursor/domain id, or -1 when
   unclaimed.  A claim is a single CAS on an immediate int — no
   allocation, no lock — and between CPs an AA is owned by at most one
   writer, which is what keeps the word-at-a-time harvest kernels
   single-writer.  All claims are released serially at the CP boundary. *)

let no_owner = -1

let make_owners topology =
  Array.init (Topology.aa_count topology) (fun _ -> Atomic.make no_owner)

let[@inline] claim_aa range ~aa ~owner =
  Atomic.compare_and_set range.owners.(aa) no_owner owner

type t = {
  config : Config.t;
  ranges : range array;
  activemap : Activemap.t;
  total_blocks : int;
  pool : Par.t;
  mutable rebuild_epoch : int;
}

let make_raid_range ~streams index base (spec : Config.raid_group_spec) =
  let geometry =
    Geometry.create ~data_devices:spec.Config.data_devices
      ~parity_devices:spec.Config.parity_devices ~device_blocks:spec.Config.device_blocks
  in
  let aa_stripes = Config.aa_stripes_for spec in
  let topology = Topology.raid_aware ~geometry ~aa_stripes in
  let blocks = Geometry.total_blocks geometry in
  let device =
    match spec.Config.media with
    | Config.Hdd p -> Hdd_sim p
    | Config.Ssd p ->
      (* one stream fills one AA = one erase block per data device, so a
         stream needs two AA fan-outs open at once (the one it is filling
         and the one it is handing over to), or the LRU closes
         still-filling blocks and re-pays their relocation charge on
         reopen; single-stream keeps the historical 8 *)
      let open_blocks =
        if streams <= 1 then 8 else 2 * streams * (spec.Config.data_devices + 1)
      in
      Ssd_sim (Ftl.create ~profile:p ~open_blocks ~streams ~logical_blocks:blocks ())
    | Config.Smr p ->
      (* the SMR device space includes interleaved AZCS checksum blocks,
         device spans rounded to whole regions (see Cp.smr_device_span) *)
      let span =
        Wafl_util.Bitops.round_up
          (Azcs.device_span_of_data spec.Config.device_blocks)
          Azcs.region_blocks
      in
      Smr_sim
        ( Smr.create ~profile:p ~blocks:(span * spec.Config.data_devices) (),
          Array.init spec.Config.data_devices (fun _ -> Azcs.create_tracker ()) )
  in
  let scores = Array.init (Topology.aa_count topology) (Topology.aa_capacity topology) in
  {
    index;
    base;
    blocks;
    topology;
    geometry = Some geometry;
    group = Some (Group.create geometry);
    device;
    scores;
    cache = None;
    delta = Score.create_delta topology;
    media = Some spec.Config.media;
    fault = None;
    cache_epoch = 0;
    owners = make_owners topology;
  }

let make_object_range index base (spec : Config.object_range_spec) =
  let aa_blocks =
    Option.value spec.Config.aa_blocks ~default:Sizing.default_raid_agnostic_blocks
  in
  let topology = Topology.raid_agnostic ~total_blocks:spec.Config.blocks ~aa_blocks in
  let scores = Array.init (Topology.aa_count topology) (Topology.aa_capacity topology) in
  {
    index;
    base;
    blocks = spec.Config.blocks;
    topology;
    geometry = None;
    group = None;
    device = Object_sim (Object_store.create ~profile:spec.Config.profile ());
    scores;
    cache = None;
    delta = Score.create_delta topology;
    media = None;
    fault = None;
    cache_epoch = 0;
    owners = make_owners topology;
  }

let build_cache range =
  match range.geometry with
  | Some _ -> Cache.raid_aware ~space:range.index ~scores:range.scores ()
  | None ->
    let c =
      Cache.raid_agnostic ~space:range.index
        ~max_score:(Topology.full_aa_capacity range.topology)
        ~scores:range.scores ()
    in
    (match Cache.backend c with
    | Cache.Raid_agnostic h -> Hbps.replenish h
    | Cache.Raid_aware _ -> ());
    c

(* One fault-plane device handle per range, created in range-index order so
   the per-device RNG substreams are stable.  The same handle is threaded
   into the range's device sim (and its AZCS trackers), which model the
   I/O, and kept on the range for allocation-time probes. *)
let attach_faults_ranges ranges plane =
  Array.iter
    (fun r ->
      let dev = Wafl_fault.Fault.device plane ~id:r.index in
      r.fault <- Some dev;
      match r.device with
      | Hdd_sim _ -> ()
      | Ssd_sim ftl -> Ftl.set_fault ftl (Some dev)
      | Smr_sim (smr, trackers) ->
        Smr.set_fault smr (Some dev);
        Array.iter (fun tr -> Azcs.set_tracker_fault tr (Some dev)) trackers
      | Object_sim store -> Object_store.set_fault store (Some dev))
    ranges

let create config =
  let ranges = ref [] in
  let base = ref 0 in
  let index = ref 0 in
  let run = config.Config.run in
  let streams = run.Config.streams.Config.ssd_streams in
  List.iter
    (fun spec ->
      let r = make_raid_range ~streams !index !base spec in
      ranges := r :: !ranges;
      base := !base + r.blocks;
      incr index)
    config.Config.raid_groups;
  List.iter
    (fun spec ->
      let r = make_object_range !index !base spec in
      ranges := r :: !ranges;
      base := !base + r.blocks;
      incr index)
    config.Config.object_ranges;
  let ranges = Array.of_list (List.rev !ranges) in
  if Array.length ranges = 0 then invalid_arg "Aggregate.create: no storage configured";
  let t =
    {
      config;
      ranges;
      activemap = Activemap.create ~blocks:!base ();
      total_blocks = !base;
      pool = Par.shared Par.Scan ~jobs:run.Config.jobs;
      rebuild_epoch = 0;
    }
  in
  if config.Config.aggregate_policy = Config.Best_aa then
    Array.iter (fun r -> r.cache <- Some (build_cache r)) ranges;
  (match run.Config.faults with
  | Some spec ->
    attach_faults_ranges ranges (Wafl_fault.Fault.create spec);
    Integrity.arm spec
  | None -> ());
  t

let attach_faults t plane = attach_faults_ranges t.ranges plane

let config t = t.config
let pool t = t.pool
let ranges t = t.ranges
let total_blocks t = t.total_blocks
let activemap t = t.activemap
let metafile t = Activemap.metafile t.activemap

(* Ranges are few; a linear scan is fine.  Top-level (closure-free) because
   this sits under every [allocate] on the zero-allocation hot path. *)
let rec find_range ranges i pvbn =
  let r = ranges.(i) in
  if pvbn < r.base + r.blocks then r else find_range ranges (i + 1) pvbn

let range_of_pvbn t pvbn =
  if pvbn < 0 || pvbn >= t.total_blocks then invalid_arg "Aggregate: PVBN out of bounds";
  find_range t.ranges 0 pvbn

let to_local range pvbn =
  let local = pvbn - range.base in
  if local < 0 || local >= range.blocks then invalid_arg "Aggregate: PVBN outside range";
  local

let to_global range local =
  if local < 0 || local >= range.blocks then invalid_arg "Aggregate: local VBN out of bounds";
  range.base + local

let free_blocks t = Activemap.free_count t.activemap ~start:0 ~len:t.total_blocks

let used_fraction t =
  1.0 -. (float_of_int (free_blocks t) /. float_of_int t.total_blocks)

let free_run_stats t =
  Metafile.free_run_stats (Activemap.metafile t.activemap) ~start:0 ~len:t.total_blocks

let allocate t ~pvbn =
  Activemap.allocate t.activemap pvbn;
  let r = range_of_pvbn t pvbn in
  Score.note_alloc r.delta ~vbn:(to_local r pvbn)

(* Hot-path allocate for a PVBN popped from a harvest ring: the cursor
   already knows the range and the AA (rings hold one AA's blocks), and
   ring entries are free by construction (revalidation filters stale
   ones), so the range scan, the VBN->AA divisions, and the
   already-allocated re-check all drop out. *)
let[@inline] allocate_harvested t range ~aa ~pvbn =
  Activemap.allocate_harvested t.activemap pvbn;
  Score.note_alloc_aa range.delta ~aa

let queue_free t ~pvbn = Activemap.queue_free t.activemap pvbn

let commit_frees t =
  let result = Activemap.commit ~pool:t.pool t.activemap in
  List.iter
    (fun pvbn ->
      let r = range_of_pvbn t pvbn in
      Score.note_free r.delta ~vbn:(to_local r pvbn))
    result.Activemap.freed;
  (result.Activemap.pages_written, result.Activemap.freed)

let aa_score_now t range aa =
  let mf = metafile t in
  List.fold_left
    (fun acc e ->
      acc
      + Metafile.free_count mf
          ~start:(to_global range (Wafl_block.Extent.start e))
          ~len:(Wafl_block.Extent.len e))
    0
    (Topology.extents_of_aa range.topology aa)

(* Rescore [scores.(aa)] for every AA of [r], chunked over the pool:
   each chunk fills its own (disjoint) score slots with a pure function
   of the bitmap, so the array is bit-identical at any domain count.
   Below 32 AAs the dispatch would cost more than the scan, so the range
   is rescored inline. *)
let rescore_range t r =
  Par.run_ranges t.pool ~min:32 (Topology.aa_count r.topology) ~f:(fun s len ->
      for aa = s to s + len - 1 do
        r.scores.(aa) <- aa_score_now t r aa
      done)

(* --- cache validity epochs (incremental mount rebuild) ---

   A range's cache is valid when its [cache_epoch] matches the aggregate's
   [rebuild_epoch].  Lazy mounts bump the aggregate epoch, leaving every
   range stale-but-seeded; [Rebuild.touch_range] materializes a stale
   range's exact scores and cache on first touch (pick, harvest, Iron
   scan, cleaner pass) and re-stamps it.  A freshly created aggregate is
   fresh everywhere (both epochs are 0). *)

let invalidate_caches t = t.rebuild_epoch <- t.rebuild_epoch + 1
let rebuild_epoch t = t.rebuild_epoch
let[@inline] range_fresh t r = r.cache_epoch = t.rebuild_epoch
let mark_range_fresh t r = r.cache_epoch <- t.rebuild_epoch

(* Per-range exact rebuild: the building block the unified [Rebuild]
   entry point orchestrates (callers go through [Rebuild.request] /
   [Rebuild.touch_range], never here directly). *)
let rebuild_range t r =
  Telemetry.incr "aggregate.range_rebuilds";
  Score.clear r.delta;
  rescore_range t r;
  r.cache <- Some (build_cache r);
  mark_range_fresh t r

let disable_caches t = Array.iter (fun r -> r.cache <- None) t.ranges

(* Batch-harvest an AA's free PVBNs into [dst] in allocation order, reading
   the bitmap a word at a time instead of probing per block.  RAID-agnostic
   AAs are one contiguous extent; RAID-aware AAs interleave one extent per
   data device in stripe-major order, so the scan merges a 32-stripe free
   mask per device: the OR across devices says which stripes have any free
   block, and one ctz per such stripe replaces 32 * devices bit probes.
   Adds words (32-bit masks) read to [words].  The per-block inner loop
   allocates nothing; only the per-AA setup does (a small mask array). *)
(* Stripe-window kernel shared by the serial and the sharded harvest:
   emit the free PVBNs of stripes [first, first + count) into [dst] from
   index 0, stripe-major.  Pure bitmap reads; the words-read cost is
   [data_devices * ceil_div count 32] (computed by the callers so a
   shared accumulator never sees concurrent writes). *)
let harvest_stripes mf range geometry ~first ~count ~dst =
  let devices = Geometry.data_devices geometry in
  let device_blocks = Geometry.device_blocks geometry in
  let masks = Array.make devices 0 in
  let pos = ref 0 in
  let s = ref first in
  let finish = first + count in
  while !s < finish do
    let chunk = min 32 (finish - !s) in
    let chunk_mask = if chunk < 32 then (1 lsl chunk) - 1 else 0xFFFFFFFF in
    let or_mask = ref 0 in
    for d = 0 to devices - 1 do
      let m =
        Metafile.free_mask32 mf (range.base + (d * device_blocks) + !s) land chunk_mask
      in
      masks.(d) <- m;
      or_mask := !or_mask lor m
    done;
    while !or_mask <> 0 do
      let b = Wafl_util.Bitops.ctz !or_mask in
      let bit = 1 lsl b in
      let stripe_vbn = range.base + !s + b in
      for d = 0 to devices - 1 do
        if masks.(d) land bit <> 0 then begin
          dst.(!pos) <- stripe_vbn + (d * device_blocks);
          incr pos
        end
      done;
      or_mask := !or_mask land lnot bit
    done;
    s := !s + 32
  done;
  !pos

let harvest_free_of_aa t range aa ~dst ~words =
  if aa < 0 || aa >= Topology.aa_count range.topology then
    invalid_arg "Aggregate.harvest_free_of_aa: AA index out of bounds";
  let mf = metafile t in
  match range.topology with
  | Topology.Raid_agnostic { total_blocks; aa_blocks } ->
    let start = aa * aa_blocks in
    let len = min aa_blocks (total_blocks - start) in
    words := !words + Wafl_util.Bitops.ceil_div len 32;
    Metafile.harvest_free_into mf ~start:(range.base + start) ~len ~offset:0 ~dst ~pos:0
  | Topology.Raid_aware { geometry; aa_stripes } ->
    let first = aa * aa_stripes in
    let count = min aa_stripes (Geometry.stripes geometry - first) in
    words := !words + (Geometry.data_devices geometry * Wafl_util.Bitops.ceil_div count 32);
    harvest_stripes mf range geometry ~first ~count ~dst

(* Sharded harvest: split the AA's span into one 32-aligned chunk per
   shard, let each pool domain harvest its chunk into its own scratch
   ring, then concatenate the shards into [dst] in chunk order.  Chunk
   boundaries fall on 32-block (or 32-stripe) marks, so the per-chunk
   word counts sum to exactly the serial count and the concatenation
   reproduces the serial emission order — ring contents are identical to
   {!harvest_free_of_aa} at any domain count.  Every shard must hold the
   AA's full capacity (chunk sizes are an internal detail). *)
let harvest_free_of_aa_sharded pool t range aa ~shards ~dst ~words =
  if aa < 0 || aa >= Topology.aa_count range.topology then
    invalid_arg "Aggregate.harvest_free_of_aa_sharded: AA index out of bounds";
  let mf = metafile t in
  let gather counts =
    let pos = ref 0 in
    Array.iteri
      (fun c count ->
        Array.blit shards.(c) 0 dst !pos count;
        pos := !pos + count)
      counts;
    !pos
  in
  match range.topology with
  | Topology.Raid_agnostic { total_blocks; aa_blocks } ->
    let start = aa * aa_blocks in
    let len = min aa_blocks (total_blocks - start) in
    let bounds = Par.chunk_bounds ~total:len ~align:32 ~chunks:(Array.length shards) in
    if Array.length bounds <= 1 then harvest_free_of_aa t range aa ~dst ~words
    else begin
      words := !words + Wafl_util.Bitops.ceil_div len 32;
      let counts =
        Par.map pool ~chunks:(Array.length bounds) ~f:(fun c ->
            let cstart, clen = bounds.(c) in
            Metafile.harvest_free_into mf ~start:(range.base + start + cstart) ~len:clen
              ~offset:0 ~dst:shards.(c) ~pos:0)
      in
      gather counts
    end
  | Topology.Raid_aware { geometry; aa_stripes } ->
    let first = aa * aa_stripes in
    let count = min aa_stripes (Geometry.stripes geometry - first) in
    let bounds = Par.chunk_bounds ~total:count ~align:32 ~chunks:(Array.length shards) in
    if Array.length bounds <= 1 then harvest_free_of_aa t range aa ~dst ~words
    else begin
      words :=
        !words + (Geometry.data_devices geometry * Wafl_util.Bitops.ceil_div count 32);
      let counts =
        Par.map pool ~chunks:(Array.length bounds) ~f:(fun c ->
            let cfirst, ccount = bounds.(c) in
            harvest_stripes mf range geometry ~first:(first + cfirst) ~count:ccount
              ~dst:shards.(c))
      in
      gather counts
    end
