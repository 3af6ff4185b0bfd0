open Wafl_bitmap
open Wafl_aa
open Wafl_aacache

(* Process-wide volume id counter: every volume gets a small dense uid at
   creation, which the write allocator uses as an O(1) cursor-slot index
   (fleet-scale volume counts must not pay a list walk per allocation). *)
let next_uid = Atomic.make 0

(* A file's block map: [vvbns.(offset)] is the VVBN backing that offset,
   -1 for a hole.  Dense because every writer fills offsets from 0 (a
   working set or a sequential cursor); it grows by doubling, and
   [mapped] counts the non-hole entries. *)
type block_map = { mutable vvbns : int array; mutable mapped : int }

type t = {
  uid : int;
  spec : Config.vol_spec;
  topology : Topology.t;
  activemap : Activemap.t;
  scores : int array;
  mutable cache : Cache.t option;
  delta : Score.delta;
  container : int array;  (* vvbn -> pvbn, -1 when unmapped *)
  inodes : (int, block_map) Hashtbl.t;  (* file -> offset -> vvbn *)
  snapshots : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* id -> pinned vvbns *)
  zombies : (int, unit) Hashtbl.t;  (* vvbns kept only for snapshots *)
  mutable next_snapshot : int;
  pool : Wafl_par.Par.t;
  mutable rebuild_epoch : int;
  mutable cache_epoch : int;  (* cache/scores exact iff = rebuild_epoch *)
}

let create ?(pool = Wafl_par.Par.serial) (spec : Config.vol_spec) =
  if spec.Config.blocks <= 0 then invalid_arg "Flexvol.create: empty volume";
  let aa_blocks = Option.value spec.Config.aa_blocks ~default:Sizing.default_raid_agnostic_blocks in
  let aa_blocks = min aa_blocks spec.Config.blocks in
  let topology = Topology.raid_agnostic ~total_blocks:spec.Config.blocks ~aa_blocks in
  let scores = Array.init (Topology.aa_count topology) (Topology.aa_capacity topology) in
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      spec;
      topology;
      (* one metafile page per AA — the §3.2.1 alignment — even when the
         simulation scales AAs below the physical 32k-bits-per-block *)
      activemap =
        Activemap.create
          ~page_bits:(min Wafl_block.Units.bits_per_metafile_block aa_blocks)
          ~blocks:spec.Config.blocks ();
      scores;
      cache = None;
      delta = Score.create_delta topology;
      container = Array.make spec.Config.blocks (-1);
      inodes = Hashtbl.create 16;
      snapshots = Hashtbl.create 4;
      zombies = Hashtbl.create 256;
      next_snapshot = 1;
      pool;
      rebuild_epoch = 0;
      cache_epoch = 0;
    }
  in
  if spec.Config.policy = Config.Best_aa then begin
    let cache =
      Cache.raid_agnostic ~max_score:(Topology.full_aa_capacity topology) ~scores ()
    in
    (* an empty volume: every AA qualifies; fill the list page *)
    (match Cache.backend cache with
    | Cache.Raid_agnostic h -> Hbps.replenish h
    | Cache.Raid_aware _ -> ());
    t.cache <- Some cache
  end;
  t

let uid t = t.uid
let name t = t.spec.Config.name
let blocks t = Array.length t.container
let spec t = t.spec
let topology t = t.topology
let activemap t = t.activemap
let metafile t = Activemap.metafile t.activemap
let scores t = t.scores
let cache t = t.cache
let set_cache t c = t.cache <- c
let delta t = t.delta

let free_blocks t = Activemap.free_count t.activemap ~start:0 ~len:(blocks t)
let used_fraction t = 1.0 -. (float_of_int (free_blocks t) /. float_of_int (blocks t))

let pvbn_of_vvbn t vvbn =
  let p = t.container.(vvbn) in
  if p < 0 then None else Some p

let reserve_vvbn t ~vvbn =
  Activemap.allocate t.activemap vvbn;
  Score.note_alloc t.delta ~vbn:vvbn

(* Trusted hot-path variant mirroring [Aggregate.allocate_harvested]:
   the harvest cursor knows the AA and guarantees the VVBN is free. *)
let reserve_harvested t ~aa ~vvbn =
  Activemap.allocate_harvested t.activemap vvbn;
  Score.note_alloc_aa t.delta ~aa

let attach_reserved t ~vvbn ~pvbn =
  if not (Activemap.is_allocated t.activemap vvbn) then
    invalid_arg "Flexvol.attach_reserved: VVBN not reserved";
  if t.container.(vvbn) >= 0 then invalid_arg "Flexvol.attach_reserved: VVBN already mapped";
  t.container.(vvbn) <- pvbn

let release_reserved t ~vvbn =
  if t.container.(vvbn) >= 0 then invalid_arg "Flexvol.release_reserved: VVBN is mapped";
  Activemap.queue_free t.activemap vvbn

let map_vvbn t ~vvbn ~pvbn =
  if t.container.(vvbn) >= 0 then invalid_arg "Flexvol.map_vvbn: VVBN already mapped";
  reserve_vvbn t ~vvbn;
  attach_reserved t ~vvbn ~pvbn

let remap_vvbn t ~vvbn ~pvbn =
  let old = t.container.(vvbn) in
  if old < 0 then invalid_arg "Flexvol.remap_vvbn: VVBN not mapped";
  t.container.(vvbn) <- pvbn;
  old

let queue_unmap t ~vvbn =
  if t.container.(vvbn) < 0 then invalid_arg "Flexvol.queue_unmap: VVBN not mapped";
  Activemap.queue_free t.activemap vvbn;
  t.container.(vvbn) <- -1

let commit_frees t =
  let result = Activemap.commit ~pool:t.pool t.activemap in
  List.iter (fun vvbn -> Score.note_free t.delta ~vbn:vvbn) result.Activemap.freed;
  result.Activemap.pages_written

(* --- cache validity epoch (incremental mount rebuild) ---
   Mirrors [Aggregate]'s per-range epochs; a lazy mount invalidates, and
   [Rebuild.touch_vol] re-materializes on first touch. *)
let invalidate_cache t = t.rebuild_epoch <- t.rebuild_epoch + 1
let[@inline] cache_fresh t = t.cache_epoch = t.rebuild_epoch

(* Exact rescore + fresh HBPS; building block of [Rebuild.request]. *)
let rebuild_cache t =
  Score.clear t.delta;
  let mf = metafile t in
  let n = Topology.aa_count t.topology in
  (* Parallel rescoring writes each (disjoint) score slot exactly once
     with a pure function of the bitmap — bit-identical to the serial
     fill at any domain count. *)
  Wafl_par.Par.run_ranges t.pool ~min:32 n ~f:(fun s len ->
      for aa = s to s + len - 1 do
        t.scores.(aa) <- Score.score_of_aa t.topology mf aa
      done);
  let cache =
    Cache.raid_agnostic ~max_score:(Topology.full_aa_capacity t.topology) ~scores:t.scores ()
  in
  (match Cache.backend cache with
  | Cache.Raid_agnostic h -> Hbps.replenish h
  | Cache.Raid_aware _ -> ());
  t.cache <- Some cache;
  t.cache_epoch <- t.rebuild_epoch

let harvest_free_of_aa t aa ~dst ~words =
  match t.topology with
  | Topology.Raid_agnostic { total_blocks; aa_blocks } ->
    let start = aa * aa_blocks in
    if start < 0 || start >= total_blocks then
      invalid_arg "Flexvol.harvest_free_of_aa: AA index out of bounds";
    let len = min aa_blocks (total_blocks - start) in
    words := !words + Wafl_util.Bitops.ceil_div len 32;
    Metafile.harvest_free_into (metafile t) ~start ~len ~offset:0 ~dst ~pos:0
  | Topology.Raid_aware _ ->
    (* create only ever builds RAID-agnostic volume topologies *)
    assert false

(* --- snapshots ---

   A snapshot pins a set of VVBNs; the virtual-to-physical translation
   stays in the shared container map, so physical relocation (segment
   cleaning) is transparent to snapshots.  A VVBN overwritten while pinned
   becomes a "zombie": it leaves the active namespace but keeps its
   container entry until the last snapshot holding it is deleted. *)

let create_snapshot t =
  let id = t.next_snapshot in
  t.next_snapshot <- id + 1;
  let pinned = Hashtbl.create 1024 in
  Array.iteri
    (fun vvbn pvbn ->
      (* zombies are history, not part of the active image being captured *)
      if pvbn >= 0 && not (Hashtbl.mem t.zombies vvbn) then Hashtbl.replace pinned vvbn ())
    t.container;
  Hashtbl.replace t.snapshots id pinned;
  id

let snapshots t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.snapshots [])

(* Asked on every overwrite: with no snapshot, skip the fold (and the
   closure it allocates). *)
let snapshot_holds t ~vvbn =
  Hashtbl.length t.snapshots > 0
  && Hashtbl.fold (fun _ pinned acc -> acc || Hashtbl.mem pinned vvbn) t.snapshots false

let detach_vvbn t ~vvbn =
  if t.container.(vvbn) < 0 then invalid_arg "Flexvol.detach_vvbn: VVBN not mapped";
  if not (snapshot_holds t ~vvbn) then
    invalid_arg "Flexvol.detach_vvbn: VVBN not snapshot-held";
  (* container entry survives for the snapshots' benefit *)
  Hashtbl.replace t.zombies vvbn ()

let delete_snapshot t id =
  let pinned =
    match Hashtbl.find_opt t.snapshots id with
    | Some m -> m
    | None -> raise Not_found
  in
  Hashtbl.remove t.snapshots id;
  Hashtbl.fold
    (fun vvbn () acc ->
      if Hashtbl.mem t.zombies vvbn && not (snapshot_holds t ~vvbn) then begin
        let pvbn = t.container.(vvbn) in
        Hashtbl.remove t.zombies vvbn;
        t.container.(vvbn) <- -1;
        (vvbn, pvbn) :: acc
      end
      else acc)
    pinned []

let snapshot_read t ~snapshot ~vvbn =
  match Hashtbl.find_opt t.snapshots snapshot with
  | None -> None
  | Some pinned -> if Hashtbl.mem pinned vvbn then pvbn_of_vvbn t vvbn else None

let inode t file =
  match Hashtbl.find t.inodes file with
  | map -> map
  | exception Not_found ->
    let map = { vvbns = [||]; mapped = 0 } in
    Hashtbl.add t.inodes file map;
    map

let check_offset fn offset = if offset < 0 then invalid_arg (fn ^ ": negative offset")

let write_file t ~file ~offset ~vvbn =
  check_offset "Flexvol.write_file" offset;
  let map = inode t file in
  let len = Array.length map.vvbns in
  if offset >= len then begin
    let grown = Array.make (max (offset + 1) (max 16 (2 * len))) (-1) in
    Array.blit map.vvbns 0 grown 0 len;
    map.vvbns <- grown
  end;
  let old = map.vvbns.(offset) in
  map.vvbns.(offset) <- vvbn;
  if old < 0 then begin
    map.mapped <- map.mapped + 1;
    None
  end
  else Some old

let read_file t ~file ~offset =
  check_offset "Flexvol.read_file" offset;
  match Hashtbl.find t.inodes file with
  | map when offset < Array.length map.vvbns ->
    let vvbn = map.vvbns.(offset) in
    if vvbn < 0 then None else Some vvbn
  | _ -> None
  | exception Not_found -> None

let file_blocks t ~file =
  match Hashtbl.find_opt t.inodes file with None -> 0 | Some map -> map.mapped

let files t = Hashtbl.fold (fun file _ acc -> file :: acc) t.inodes []

(* --- namespace persistence (crash images) ---

   The container map and inode maps are the durable namespace a crash
   image must carry: without them a remount cannot answer "which physical
   block holds file F offset O", and Iron cannot cross-check container
   references against the bitmaps. *)

type namespace = { container_copy : int array; file_maps : (int * block_map) list }

(* Copies, trimmed to each file's last mapped offset: the image must not
   alias the live arrays the source system keeps writing. *)
let export_namespace t =
  let file_maps =
    Hashtbl.fold
      (fun file map acc ->
        let len = ref (Array.length map.vvbns) in
        while !len > 0 && map.vvbns.(!len - 1) < 0 do
          decr len
        done;
        (file, { vvbns = Array.sub map.vvbns 0 !len; mapped = map.mapped }) :: acc)
      t.inodes []
  in
  { container_copy = Array.copy t.container; file_maps }

let import_namespace t ns =
  if Array.length ns.container_copy <> Array.length t.container then
    invalid_arg "Flexvol.import_namespace: volume size differs";
  Array.blit ns.container_copy 0 t.container 0 (Array.length t.container);
  List.iter
    (fun (file, map) ->
      Hashtbl.replace t.inodes file { vvbns = Array.copy map.vvbns; mapped = map.mapped })
    ns.file_maps
