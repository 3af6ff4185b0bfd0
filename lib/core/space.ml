open Wafl_bitmap
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry

type label = Range of int | Vol of string

type t = {
  label : label;
  topology : Topology.t;
  base : int;
  activemap : Activemap.t;
  policy : Config.allocation_policy;
  scores : int array;
  delta : Score.delta;
  mutable cache : Cache.t option;
  mutable stale : bool;
  claimed : Bytes.t;
  unclaimed : int -> bool;
}

let cached s = s.policy = Config.Best_aa

let trace_id s = match s.label with Range i -> i | Vol _ -> -1

(* An HBPS over the space from [scores], its list page filled. *)
let hbps_cache s scores =
  let c =
    Cache.raid_agnostic ~space:(trace_id s)
      ~max_score:(Topology.full_aa_capacity s.topology)
      ~scores ()
  in
  (match Cache.backend c with
  | Cache.Raid_agnostic h -> Hbps.replenish h
  | Cache.Raid_aware _ -> ());
  c

(* The cache kind follows the topology: a max-heap over a RAID group's
   AAs, an HBPS over a RAID-agnostic space. *)
let build_cache s =
  match s.topology with
  | Topology.Raid_aware _ -> Cache.raid_aware ~space:(trace_id s) ~scores:s.scores ()
  | Topology.Raid_agnostic _ -> hbps_cache s s.scores

(* One claim byte per AA, nonzero while a class row holds the AA: within
   a CP an AA is filled by at most one row.  Claims are released at the
   CP boundary. *)
let create ~label ~base ~activemap ~policy topology =
  let n = Topology.aa_count topology in
  let claimed = Bytes.make n '\000' in
  let s =
    {
      label;
      topology;
      base;
      activemap;
      policy;
      scores = Array.init n (Topology.aa_capacity topology);
      delta = Score.create_delta topology;
      cache = None;
      stale = false;
      claimed;
      unclaimed = (fun aa -> Bytes.get claimed aa = '\000');
    }
  in
  if cached s then s.cache <- Some (build_cache s);
  s

let metafile s = Activemap.metafile s.activemap

let score_now s aa = Score.score_of_aa ~base:s.base s.topology (metafile s) aa

let rec array_max a i best =
  if i >= Array.length a then best else array_max a (i + 1) (if a.(i) > best then a.(i) else best)

(* A cacheless space offers its exact best score, so the range weighting
   and the fragmentation throttle still work without a cache. *)
let best_score s =
  match s.cache with Some c -> Cache.best_score c | None -> array_max s.scores 0 0

let rebuild s =
  (match s.label with Range _ -> Telemetry.incr "aggregate.range_rebuilds" | Vol _ -> ());
  Score.clear s.delta;
  for aa = 0 to Topology.aa_count s.topology - 1 do
    s.scores.(aa) <- score_now s aa
  done;
  s.cache <- (if cached s then Some (build_cache s) else None);
  s.stale <- false

(* Read every metafile page of the space, accounted as scan I/O like the
   eager mount scan, and rebuild from them; returns the pages read. *)
let scan_rebuild s =
  let pages =
    Metafile.scan_read (metafile s) ~start:s.base ~len:(Topology.total_blocks s.topology)
  in
  rebuild s;
  pages

let materialize s =
  Telemetry.incr
    (match s.label with Range _ -> "rebuild.lazy_ranges" | Vol _ -> "rebuild.lazy_vols");
  ignore (scan_rebuild s)

let[@inline] touch s = if s.stale then materialize s

(* Stripe-window kernel of the RAID-aware harvest: emit the free positions
   of stripes [first, first + count) into [dst] from index 0,
   stripe-major.  The OR of the per-device 32-stripe free masks says which
   stripes have any free block, and one ctz per such stripe replaces
   32 * devices bit probes.  Only the small per-AA mask array allocates. *)
let harvest_stripes mf ~base geometry ~first ~count ~dst =
  let devices = Wafl_raid.Geometry.data_devices geometry in
  let device_blocks = Wafl_raid.Geometry.device_blocks geometry in
  let masks = Array.make devices 0 in
  let pos = ref 0 in
  let s = ref first in
  let finish = first + count in
  while !s < finish do
    let chunk = min 32 (finish - !s) in
    let chunk_mask = if chunk < 32 then (1 lsl chunk) - 1 else 0xFFFFFFFF in
    let or_mask = ref 0 in
    for d = 0 to devices - 1 do
      let m = Metafile.free_mask32 mf (base + (d * device_blocks) + !s) land chunk_mask in
      masks.(d) <- m;
      or_mask := !or_mask lor m
    done;
    while !or_mask <> 0 do
      let b = Wafl_util.Bitops.ctz !or_mask in
      let bit = 1 lsl b in
      let stripe_vbn = base + !s + b in
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

let harvest s aa ~dst ~words =
  if aa < 0 || aa >= Topology.aa_count s.topology then
    invalid_arg "Space.harvest: AA index out of bounds";
  match s.topology with
  | Topology.Raid_agnostic { total_blocks; aa_blocks } ->
    let start = aa * aa_blocks in
    let len = min aa_blocks (total_blocks - start) in
    words := !words + Wafl_util.Bitops.ceil_div len 32;
    Metafile.harvest_free_into (metafile s) ~start:(s.base + start) ~len ~offset:0 ~dst ~pos:0
  | Topology.Raid_aware { geometry; aa_stripes } ->
    let first = aa * aa_stripes in
    let count = min aa_stripes (Wafl_raid.Geometry.stripes geometry - first) in
    words :=
      !words + (Wafl_raid.Geometry.data_devices geometry * Wafl_util.Bitops.ceil_div count 32);
    harvest_stripes (metafile s) ~base:s.base geometry ~first ~count ~dst

let allocate s vbn =
  Activemap.allocate s.activemap vbn;
  Score.note_alloc s.delta ~vbn:(vbn - s.base)

(* Hot path for a position popped from a harvest ring: the ring holds one
   AA's blocks, free by construction (revalidation filters stale ones). *)
let[@inline] allocate_harvested s ~aa vbn =
  Activemap.allocate_harvested s.activemap vbn;
  Score.note_alloc_aa s.delta ~aa

let note_free s vbn = Score.note_free s.delta ~vbn:(vbn - s.base)

(* --- TopAA --- *)

type topaa = Topaa_heap of Pagestore.t | Topaa_hbps of Pagestore.t * Pagestore.t

(* A [Best_aa] space mounted with no scan has no cache until first touch;
   it persists one built from its current scores. *)
let save_topaa s =
  if not (cached s) then None
  else
    let cache = match s.cache with Some c -> c | None -> build_cache s in
    match Cache.backend cache with
    | Cache.Raid_aware heap -> Some (Topaa_heap (Topaa.save_raid_aware heap))
    | Cache.Raid_agnostic hbps ->
      let histogram, list_page = Topaa.save_hbps hbps in
      Some (Topaa_hbps (histogram, list_page))

let topaa_pages = function Topaa_heap _ -> 1 | Topaa_hbps _ -> 2

(* Whether decoded seeds fit the space: every id in [0, aa_count), every
   score in [0, full AA capacity], no id twice.  A valid checksum only says
   the block reads back as written, not that it was written for this
   space; seeds that do not fit take the same fallback as a checksum
   failure. *)
let seeds_fit s seeds =
  let n = Topology.aa_count s.topology and cap = Topology.full_aa_capacity s.topology in
  let seen = Bytes.make n '\000' in
  List.for_all
    (fun (aa, score) ->
      aa >= 0 && aa < n && score >= 0 && score <= cap
      && Bytes.get seen aa = '\000'
      &&
      (Bytes.set seen aa '\001';
       true))
    seeds

(* The cache persisted pages describe, when they decode and fit: a heap of
   the saved best pairs, or an HBPS scoring each listed AA at its bin's
   lower bound and every other AA at zero.  Returns it with its seed
   count. *)
let load s = function
  | Topaa_heap page -> (
    match Topaa.load_raid_aware page with
    | Ok seeds when seeds_fit s seeds ->
      let heap = Max_heap.create ~n_aas:(Topology.aa_count s.topology) in
      List.iter (fun (aa, score) -> Max_heap.insert heap ~aa ~score) seeds;
      Some (Cache.make ~space:(trace_id s) (Cache.Raid_aware heap), List.length seeds)
    | Ok _ | Error _ -> None)
  | Topaa_hbps (histogram, list_page) -> (
    match Topaa.load_hbps (histogram, list_page) with
    | Ok seed when seed.Topaa.bin_width > 0 && seeds_fit s (Topaa.seed_scores seed) ->
      let approx = Array.make (Topology.aa_count s.topology) 0 in
      List.iter (fun (aa, score) -> approx.(aa) <- score) (Topaa.seed_scores seed);
      Some (hbps_cache s approx, List.length seed.Topaa.entries)
    | Ok _ | Error _ -> None)

(* Damaged or misfit pages engage the bitmap-truth rescore for just this
   space (the real system would hand it to WAFL Iron); the rebuild also
   clears [stale], so a lazy mount does not rescan it on first touch. *)
let seed s topaa =
  match load s topaa with
  | Some (cache, seeds) ->
    s.cache <- Some cache;
    (seeds, 0)
  | None -> (0, scan_rebuild s)
