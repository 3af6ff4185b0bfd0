open Wafl_bitmap
open Wafl_raid
open Wafl_device
open Wafl_aa

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
  media : Config.media option;
  mutable fault : Wafl_fault.Fault.device option;
  space : Space.t;
}

type t = {
  config : Config.t;
  ranges : range array;
  activemap : Activemap.t;
  total_blocks : int;
}

(* A range's topology, and how to finish the range once the aggregate-wide
   activemap — whose size needs every topology — can back its space. *)
let make_raid_range ~streams (spec : Config.raid_group_spec) =
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
  ( topology,
    fun index base space ->
      {
        index;
        base;
        blocks;
        topology;
        geometry = Some geometry;
        group = Some (Group.create geometry);
        device;
        media = Some spec.Config.media;
        fault = None;
        space;
      } )

let make_object_range (spec : Config.object_range_spec) =
  let aa_blocks =
    Option.value spec.Config.aa_blocks ~default:Sizing.default_raid_agnostic_blocks
  in
  let topology = Topology.raid_agnostic ~total_blocks:spec.Config.blocks ~aa_blocks in
  ( topology,
    fun index base space ->
      {
        index;
        base;
        blocks = spec.Config.blocks;
        topology;
        geometry = None;
        group = None;
        device = Object_sim (Object_store.create ~profile:spec.Config.profile ());
        media = None;
        fault = None;
        space;
      } )

(* One fault-plane device handle per range, created in range-index order so
   the per-device RNG substreams are stable.  The same handle is threaded
   into the range's device sim (and its AZCS trackers), which model the
   I/O, and kept on the range for allocation-time probes. *)
let attach_faults ranges plane =
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
  let run = config.Config.run in
  let streams = run.Config.streams.Config.ssd_streams in
  let specs =
    List.map (make_raid_range ~streams) config.Config.raid_groups
    @ List.map make_object_range config.Config.object_ranges
  in
  if specs = [] then invalid_arg "Aggregate.create: no storage configured";
  let total_blocks =
    List.fold_left (fun acc (topology, _) -> acc + Topology.total_blocks topology) 0 specs
  in
  let activemap = Activemap.create ~blocks:total_blocks () in
  let base = ref 0 in
  let ranges =
    Array.of_list
      (List.mapi
         (fun index (topology, make) ->
           let space =
             Space.create ~label:(Space.Range index) ~base:!base ~activemap
               ~policy:config.Config.aggregate_policy topology
           in
           let r = make index !base space in
           base := !base + r.blocks;
           r)
         specs)
  in
  (match run.Config.faults with
  | Some spec ->
    attach_faults ranges (Wafl_fault.Fault.create spec);
    Integrity.arm spec
  | None -> ());
  { config; ranges; activemap; total_blocks }

let config t = t.config
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

(* Page [p] of the activemap store holds bits [p * 8 * page_size, ...);
   a page straddling a range boundary overlaps both ranges. *)
let ranges_of_pages t pages =
  let bits = 8 * Integrity.page_size in
  List.filter
    (fun r -> List.exists (fun p -> r.base < (p + 1) * bits && r.base + r.blocks > p * bits) pages)
    (Array.to_list t.ranges)

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

let allocate t ~pvbn = Space.allocate (range_of_pvbn t pvbn).space pvbn

let queue_free t ~pvbn = Activemap.queue_free t.activemap pvbn

let commit_frees t =
  let result = Activemap.commit t.activemap in
  let freed = Activemap.freed t.activemap in
  for i = 0 to result.Activemap.freed - 1 do
    let pvbn = freed.(i) in
    Space.note_free (range_of_pvbn t pvbn).space pvbn
  done;
  result
