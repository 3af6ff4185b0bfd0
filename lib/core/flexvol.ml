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

(* The snapshot block map holds one word per VVBN: bit 0 marks a zombie
   (a block overwritten while pinned, kept only for snapshots) and bit
   k + 1 marks the block held by the snapshot in slot k — one bit per
   snapshot per block, as WAFL's block map keeps them. *)
let max_snapshots = 62
let zombie = 1

type t = {
  uid : int;
  spec : Config.vol_spec;
  space : Space.t;
  container : int array;  (* vvbn -> pvbn, -1 when unmapped *)
  mutable files : block_map array;  (* file id -> offset -> vvbn *)
  mutable held : int array;  (* vvbn -> block-map word; [||] before the first snapshot *)
  slots : int array;  (* slot -> snapshot id, 0 for a free slot *)
  mutable next_snapshot : int;
}

let new_map _ = { vvbns = [||]; mapped = 0 }

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
    files = Array.init 16 new_map;
    held = [||];
    slots = Array.make max_snapshots 0;
    next_snapshot = 1;
  }

let uid t = t.uid
let name t = t.spec.Config.name
let blocks t = Array.length t.container
let space t = t.space
let activemap t = t.space.Space.activemap
let metafile t = Activemap.metafile (activemap t)

let free_blocks t = Activemap.free_count (activemap t) ~start:0 ~len:(blocks t)

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

   The virtual-to-physical translation stays in the shared container
   map, so segment cleaning is transparent to snapshots.  A VVBN
   overwritten while pinned is a zombie: out of the active namespace, it
   keeps its container entry until the last snapshot holding it goes. *)

let create_snapshot t =
  let k =
    match Array.find_index (( = ) 0) t.slots with
    | Some k -> k
    | None -> invalid_arg "Flexvol.create_snapshot: 62 live snapshots is the limit"
  in
  let id = t.next_snapshot in
  t.next_snapshot <- id + 1;
  t.slots.(k) <- id;
  if Array.length t.held = 0 then t.held <- Array.make (blocks t) 0;
  let held = t.held and bit = 2 lsl k in
  Array.iteri
    (fun vvbn pvbn ->
      (* zombies are history, not part of the active image being captured *)
      if pvbn >= 0 && held.(vvbn) land zombie = 0 then held.(vvbn) <- held.(vvbn) lor bit)
    t.container;
  id

let snapshots t = List.sort Int.compare (List.filter (( <> ) 0) (Array.to_list t.slots))

(* The slot of live snapshot [id]; its bit in a block-map word is
   [2 lsl slot]. *)
let slot_of t id =
  match Array.find_index (( = ) id) t.slots with
  | Some k when id > 0 -> k
  | Some _ | None -> raise Not_found

(* Asked on every overwrite: one word read, none without a snapshot. *)
let[@inline] snapshot_holds t ~vvbn =
  Array.length t.held > 0 && t.held.(vvbn) land lnot zombie <> 0

let delete_snapshot t id =
  let k = slot_of t id in
  t.slots.(k) <- 0;
  let held = t.held and bit = 2 lsl k and released = ref [] in
  for vvbn = Array.length held - 1 downto 0 do
    let word = held.(vvbn) in
    if word land bit <> 0 then
      if word lxor bit <> zombie then held.(vvbn) <- word lxor bit
      else begin
        held.(vvbn) <- 0;
        released := (vvbn, t.container.(vvbn)) :: !released;
        t.container.(vvbn) <- -1
      end
  done;
  (* with no snapshot left every word is zero: back to no block map *)
  if Array.for_all (fun s -> s = 0) t.slots then t.held <- [||];
  !released

let snapshot_read t ~snapshot ~vvbn =
  match slot_of t snapshot with
  | k -> if t.held.(vvbn) land (2 lsl k) <> 0 then pvbn_of_vvbn t vvbn else None
  | exception Not_found -> None

(* The block map of [file], growing the file table by doubling. *)
let inode t file =
  let len = Array.length t.files in
  if file >= len then
    t.files <-
      Array.init (max (file + 1) (2 * len)) (fun i -> if i < len then t.files.(i) else new_map i);
  t.files.(file)

let check_block fn ~file ~offset =
  if file < 0 then invalid_arg (fn ^ ": negative file id");
  if offset < 0 then invalid_arg (fn ^ ": negative offset")

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
  check_block "Flexvol.write_file" ~file ~offset;
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
    check_block "Flexvol.place" ~file ~offset;
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
      if snapshot_holds t ~vvbn:old then t.held.(old) <- t.held.(old) lor zombie
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
  check_block "Flexvol.read_file" ~file ~offset;
  let vvbns = if file < Array.length t.files then t.files.(file).vvbns else [||] in
  if offset < Array.length vvbns && vvbns.(offset) >= 0 then Some vvbns.(offset) else None

let file_blocks t ~file =
  if file < 0 || file >= Array.length t.files then 0 else t.files.(file).mapped

(* --- namespace persistence (crash images) ---

   The container map, file maps and snapshot block map are the durable
   namespace a crash image must carry: without them a remount cannot
   answer "which physical block holds file F offset O", Iron cannot
   cross-check container references against the bitmaps, and a
   snapshot's blocks could never be released. *)

type namespace = {
  container_copy : int array;
  file_maps : int array array;  (* file id -> offset -> vvbn, trimmed *)
  held_copy : int array;
  slots_copy : int array;
  next_snapshot_id : int;
}

(* Copies, trimmed to each file's last mapped offset: the image must not
   alias the live arrays the source system keeps writing. *)
let export_namespace t =
  let trim map =
    let len = ref (Array.length map.vvbns) in
    while !len > 0 && map.vvbns.(!len - 1) < 0 do
      decr len
    done;
    Array.sub map.vvbns 0 !len
  in
  {
    container_copy = Array.copy t.container;
    file_maps = Array.map trim t.files;
    held_copy = Array.copy t.held;
    slots_copy = Array.copy t.slots;
    next_snapshot_id = t.next_snapshot;
  }

let import_namespace t ns =
  if Array.length ns.container_copy <> Array.length t.container then
    invalid_arg "Flexvol.import_namespace: volume size differs";
  Array.blit ns.container_copy 0 t.container 0 (Array.length t.container);
  let mapped vvbns = Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) 0 vvbns in
  t.files <- Array.map (fun v -> { vvbns = Array.copy v; mapped = mapped v }) ns.file_maps;
  t.held <- Array.copy ns.held_copy;
  Array.blit ns.slots_copy 0 t.slots 0 (Array.length t.slots);
  t.next_snapshot <- ns.next_snapshot_id
