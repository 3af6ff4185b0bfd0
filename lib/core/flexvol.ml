open Wafl_bitmap
open Wafl_aa

(* Process-wide volume id counter: every volume gets a uid at creation,
   its identity across systems (latency cells, temperature state). *)
let next_uid = ref 0

(* A file's block map: [vvbns.(offset)] is the VVBN backing that offset,
   -1 for a hole.  Dense because every writer fills offsets from 0 (a
   working set or a sequential cursor); it grows by doubling, and
   [mapped] counts the non-hole entries. *)
type block_map = { mutable vvbns : int array; mutable mapped : int }

type t = {
  uid : int;
  spec : Config.vol_spec;
  space : Space.t;
  container : int array;  (* vvbn -> pvbn, -1 when unmapped *)
  inodes : (int, block_map) Hashtbl.t;  (* file -> offset -> vvbn *)
  snapshots : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* id -> pinned vvbns *)
  zombies : (int, unit) Hashtbl.t;  (* vvbns kept only for snapshots *)
  mutable next_snapshot : int;
}

let create (spec : Config.vol_spec) =
  if spec.Config.blocks <= 0 then invalid_arg "Flexvol.create: empty volume";
  let aa_blocks = Option.value spec.Config.aa_blocks ~default:Sizing.default_raid_agnostic_blocks in
  let aa_blocks = min aa_blocks spec.Config.blocks in
  let topology = Topology.raid_agnostic ~total_blocks:spec.Config.blocks ~aa_blocks in
  (* one metafile page per AA — the §3.2.1 alignment — even when the
     simulation scales AAs below the physical 32k-bits-per-block *)
  let activemap =
    Activemap.create
      ~page_bits:(min Wafl_block.Units.bits_per_metafile_block aa_blocks)
      ~blocks:spec.Config.blocks ()
  in
  let uid = !next_uid in
  incr next_uid;
  {
    uid;
    spec;
    space =
      Space.create ~label:(Space.Vol spec.Config.name) ~base:0 ~activemap
        ~policy:spec.Config.policy topology;
    container = Array.make spec.Config.blocks (-1);
    inodes = Hashtbl.create 16;
    snapshots = Hashtbl.create 4;
    zombies = Hashtbl.create 256;
    next_snapshot = 1;
  }

let uid t = t.uid
let name t = t.spec.Config.name
let blocks t = Array.length t.container
let space t = t.space
let activemap t = t.space.Space.activemap
let metafile t = Activemap.metafile (activemap t)

let free_blocks t = Activemap.free_count (activemap t) ~start:0 ~len:(blocks t)
let used_fraction t = 1.0 -. (float_of_int (free_blocks t) /. float_of_int (blocks t))

let pvbn_of_vvbn t vvbn =
  let p = t.container.(vvbn) in
  if p < 0 then None else Some p

let reserve_vvbn t ~vvbn = Space.allocate t.space vvbn

let attach_reserved t ~vvbn ~pvbn =
  if not (Activemap.is_allocated (activemap t) vvbn) then
    invalid_arg "Flexvol.attach_reserved: VVBN not reserved";
  if t.container.(vvbn) >= 0 then invalid_arg "Flexvol.attach_reserved: VVBN already mapped";
  t.container.(vvbn) <- pvbn

let release_reserved t ~vvbn =
  if t.container.(vvbn) >= 0 then invalid_arg "Flexvol.release_reserved: VVBN is mapped";
  Activemap.queue_free (activemap t) vvbn

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
  Activemap.queue_free (activemap t) vvbn;
  t.container.(vvbn) <- -1

let commit_frees t =
  let am = activemap t in
  let result = Activemap.commit am in
  let freed = Activemap.freed am in
  for i = 0 to result.Activemap.freed - 1 do
    Space.note_free t.space freed.(i)
  done;
  result.Activemap.pages_written

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

let grow_map map offset =
  let len = Array.length map.vvbns in
  let grown = Array.make (max (offset + 1) (max 16 (2 * len))) (-1) in
  Array.blit map.vvbns 0 grown 0 len;
  map.vvbns <- grown

(* Point block [offset] of [map] at [vvbn]; returns the VVBN it replaces,
   or [-1] for a hole. *)
let[@inline] set_block map ~offset ~vvbn =
  if offset >= Array.length map.vvbns then grow_map map offset;
  let old = map.vvbns.(offset) in
  map.vvbns.(offset) <- vvbn;
  if old < 0 then map.mapped <- map.mapped + 1;
  old

let write_file t ~file ~offset ~vvbn =
  check_offset "Flexvol.write_file" offset;
  set_block (inode t file) ~offset ~vvbn

(* --- placement: three tight passes, so the random file-map and
   container reads of consecutive writes overlap (see the .mli) --- *)

(* Pass A's inode before its first lookup; never written. *)
let no_map = { vvbns = [||]; mapped = 0 }

let place t aggregate ?temp ~files ~offsets ~vvbns ~pvbns ~old_vvbns ~old_pvbns n =
  (* A: file maps *)
  let map = ref no_map in
  for i = 0 to n - 1 do
    let file = files.(i) and offset = offsets.(i) in
    check_offset "Flexvol.place" offset;
    if i = 0 || file <> files.(i - 1) then map := inode t file;
    old_vvbns.(i) <- set_block !map ~offset ~vvbn:vvbns.(i)
  done;
  (* B: container gather *)
  let container = t.container in
  for i = 0 to n - 1 do
    let old = old_vvbns.(i) in
    old_pvbns.(i) <- (if old < 0 then -1 else container.(old))
  done;
  (* C: frees and attaches, in batch order.  A replaced VVBN must still
     map the PVBN gathered in pass B: an earlier write of this batch
     would have changed it only if the batch repeated a write. *)
  let am = activemap t in
  let fresh = ref 0 and freed = ref 0 in
  for i = 0 to n - 1 do
    let old = old_vvbns.(i) in
    if old < 0 then incr fresh
    else begin
      let old_pvbn = old_pvbns.(i) in
      if old_pvbn < 0 || container.(old) <> old_pvbn then
        invalid_arg "Flexvol.place: replaced VVBN not mapped to its gathered PVBN";
      (* COW: the replaced block dies at this CP, unless a snapshot still
         pins it: then it only leaves the active map (a zombie whose
         container entry survives) and is released at snapshot deletion *)
      if snapshot_holds t ~vvbn:old then Hashtbl.replace t.zombies old ()
      else begin
        Aggregate.queue_free aggregate ~pvbn:old_pvbn;
        Activemap.queue_free am old;
        container.(old) <- -1;
        incr freed
      end
    end;
    let vvbn = vvbns.(i) in
    attach_reserved t ~vvbn ~pvbn:pvbns.(i);
    match temp with
    | Some tm -> Temperature.note_birth tm ~uid:t.uid ~blocks:(Array.length container) ~vvbn
    | None -> ()
  done;
  (!fresh, !freed)

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

   The container map, inode maps and snapshots are the durable namespace
   a crash image must carry: without them a remount cannot answer "which
   physical block holds file F offset O", Iron cannot cross-check
   container references against the bitmaps, and a snapshot's blocks
   could never be released. *)

type namespace = {
  container_copy : int array;
  file_maps : (int * block_map) list;
  snapshots_copy : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  zombies_copy : (int, unit) Hashtbl.t;
  next_snapshot_id : int;
}

(* [Hashtbl.copy] keeps each table's iteration order, so a remounted
   snapshot releases its blocks in the order the original would. *)
let copy_snapshots snapshots =
  Hashtbl.of_seq
    (Seq.map (fun (id, pinned) -> (id, Hashtbl.copy pinned)) (Hashtbl.to_seq snapshots))

(* Copies, trimmed to each file's last mapped offset: the image must not
   alias the live arrays and tables the source system keeps writing. *)
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
  {
    container_copy = Array.copy t.container;
    file_maps;
    snapshots_copy = copy_snapshots t.snapshots;
    zombies_copy = Hashtbl.copy t.zombies;
    next_snapshot_id = t.next_snapshot;
  }

let import_namespace t ns =
  if Array.length ns.container_copy <> Array.length t.container then
    invalid_arg "Flexvol.import_namespace: volume size differs";
  Array.blit ns.container_copy 0 t.container 0 (Array.length t.container);
  List.iter
    (fun (file, map) ->
      Hashtbl.replace t.inodes file { vvbns = Array.copy map.vvbns; mapped = map.mapped })
    ns.file_maps;
  Hashtbl.iter (Hashtbl.replace t.snapshots) (copy_snapshots ns.snapshots_copy);
  Hashtbl.iter (Hashtbl.replace t.zombies) ns.zombies_copy;
  t.next_snapshot <- ns.next_snapshot_id
