open Wafl_util

type t = {
  config : Config.t;
  aggregate : Aggregate.t;
  walloc : Write_alloc.t;
  vols : Flexvol.t array;
  rng : Rng.t;
  temp : Temperature.t option;  (* Some iff config asks for > 1 class *)
  staged : Cp.batch;  (* the NVRAM log: arrays grown by doubling *)
  mutable index : int array;  (* open-addressed batch slots, -1 = empty *)
  mutable cps : int;
  scrub_cursor : int ref;  (* the scrubber's round-robin page position *)
}

(* The background scrubber runs between CPs on every system whose run
   sets a scrub rate.  It heals through [Iron.repair], which takes an
   [Fs.t], so it cannot be called from here: [Scrub] fills this slot when
   it is linked (the library links all of its modules). *)
let scrubber : (t -> budget:int -> unit) ref = ref (fun _ ~budget:_ -> ())
let set_scrubber f = scrubber := f

(* Optional process-wide registry of live systems, so batch drivers
   (waflsim) can audit every Fs an experiment built without the
   experiment having to surface its handles. *)
let registry_enabled = ref false
let registered_rev : t list ref = ref []
let enable_registry () =
  registry_enabled := true;
  registered_rev := []
let disable_registry () =
  registry_enabled := false;
  registered_rev := []
let registered () = List.rev !registered_rev

let create config =
  let run = config.Config.run in
  let aggregate = Aggregate.create config in
  let rng = Rng.create ~seed:config.Config.seed in
  let vols = Array.of_list (List.map Flexvol.create config.Config.vols) in
  let walloc = Write_alloc.create aggregate ~rng:(Rng.split rng) ~vols in
  let temp =
    let s = run.Config.streams in
    if s.Config.temp_classes > 1 then
      Some
        (Temperature.create ?meta_file:s.Config.meta_file ~classes:s.Config.temp_classes ())
    else None
  in
  let t =
    {
      config;
      aggregate;
      walloc;
      vols;
      rng;
      temp;
      staged =
        { Cp.vol = Array.make 64 0; file = Array.make 64 0; offset = Array.make 64 0; len = 0 };
      index = Array.make 128 (-1);
      cps = 0;
      scrub_cursor = ref 0;
    }
  in
  if !registry_enabled then registered_rev := t :: !registered_rev;
  t

let config t = t.config
let aggregate t = t.aggregate
let write_alloc t = t.walloc
let vols t = t.vols

let spaces t =
  Array.append
    (Array.map (fun (r : Aggregate.range) -> r.Aggregate.space) (Aggregate.ranges t.aggregate))
    (Array.map Flexvol.space t.vols)

let temperature t = t.temp
let scrub_cursor t = t.scrub_cursor

let vol t name =
  match Array.find_opt (fun v -> String.equal (Flexvol.name v) name) t.vols with
  | Some v -> v
  | None -> raise Not_found

let rng t = t.rng

(* Top-level loops, like [probe] below: a local closure would be
   allocated on every staged write. *)
let rec vol_index vols v i =
  if i >= Array.length vols then invalid_arg "Fs.stage_write: foreign volume"
  else if vols.(i) == v then i
  else vol_index vols v (i + 1)

(* Staged writes dedupe through [index], an open-addressed table of
   batch slots with linear probing: a power-of-two size, doubled at half
   full, so a probe run stays short.  Staging a write that is already in
   the batch is a no-op (the buffer cache coalesces it); a new one is
   appended to the batch arrays, which keep first-staging order. *)
let[@inline] slot_hash v file offset mask =
  let h = (v * 0x3C6EF372FE94F82B) + (file * 0x1E3779B97F4A7C15) + (offset * 0x632BE59BD9B4E019) in
  (h lxor (h lsr 29)) land mask

(* The index slot holding the batch write (v, file, offset), or the
   empty slot where it goes, searching from slot [s]. *)
let rec probe_from index (b : Cp.batch) v file offset s =
  let k = index.(s) in
  if k < 0 || (b.Cp.vol.(k) = v && b.Cp.file.(k) = file && b.Cp.offset.(k) = offset) then s
  else probe_from index b v file offset ((s + 1) land (Array.length index - 1))

let probe index b v file offset =
  probe_from index b v file offset (slot_hash v file offset (Array.length index - 1))

let grow_batch (b : Cp.batch) =
  let cap = 2 * Array.length b.Cp.vol in
  let grown a =
    let g = Array.make cap 0 in
    Array.blit a 0 g 0 b.Cp.len;
    g
  in
  b.Cp.vol <- grown b.Cp.vol;
  b.Cp.file <- grown b.Cp.file;
  b.Cp.offset <- grown b.Cp.offset

let rehash t =
  let index = Array.make (2 * Array.length t.index) (-1) in
  let b = t.staged in
  for k = 0 to b.Cp.len - 1 do
    index.(probe index b b.Cp.vol.(k) b.Cp.file.(k) b.Cp.offset.(k)) <- k
  done;
  t.index <- index

let stage_write t ~vol ~file ~offset =
  if file < 0 then invalid_arg "Fs.stage_write: negative file id";
  if offset < 0 then invalid_arg "Fs.stage_write: negative offset";
  let v = vol_index t.vols vol 0 in
  let s = probe t.index t.staged v file offset in
  if t.index.(s) < 0 then begin
    let b = t.staged in
    let k = b.Cp.len in
    if k = Array.length b.Cp.vol then grow_batch b;
    b.Cp.vol.(k) <- v;
    b.Cp.file.(k) <- file;
    b.Cp.offset.(k) <- offset;
    b.Cp.len <- k + 1;
    t.index.(s) <- k;
    if 2 * (k + 1) > Array.length t.index then rehash t
  end

let staged_count t = t.staged.Cp.len

let staged_ops t =
  let b = t.staged in
  List.init b.Cp.len (fun k -> (Flexvol.name t.vols.(b.Cp.vol.(k)), b.Cp.file.(k), b.Cp.offset.(k)))

(* Empty the batch: clear each write's index slot, found by its value
   [k] so that slots cleared before it cannot end the search — O(batch),
   not O(index). *)
let drain t =
  let b = t.staged in
  let mask = Array.length t.index - 1 in
  for k = 0 to b.Cp.len - 1 do
    let s = ref (slot_hash b.Cp.vol.(k) b.Cp.file.(k) b.Cp.offset.(k) mask) in
    while t.index.(!s) <> k do
      s := (!s + 1) land mask
    done;
    t.index.(!s) <- -1
  done;
  b.Cp.len <- 0

let run_cp t =
  (* run the CP before draining the staged batch: it stands in for the
     NVRAM log, which survives a mid-CP crash so the ops can be replayed
     (re-running a partial CP is idempotent under COW) *)
  let report = Cp.run ?temp:t.temp t.walloc t.vols t.staged in
  drain t;
  t.cps <- t.cps + 1;
  let rate = t.config.Config.run.Config.scrub_rate in
  if rate > 0 then !scrubber t ~budget:rate;
  report

let cps_completed t = t.cps

let create_snapshot _t ~vol = Flexvol.create_snapshot vol

let delete_snapshot t ~vol id =
  let released = Flexvol.delete_snapshot vol id in
  List.iter
    (fun (vvbn, pvbn) ->
      (* the vvbn may have left the active map long ago (detached on
         overwrite); it is still allocated until this queued free commits *)
      Wafl_bitmap.Activemap.queue_free (Flexvol.activemap vol) vvbn;
      Aggregate.queue_free t.aggregate ~pvbn)
    released;
  List.length released

let file_read_chains _t ~vol ~file =
  (* walk offsets from 0 until every mapped block of the file is found *)
  let rec collect offset left acc =
    if left = 0 then acc
    else
      match Flexvol.read_file vol ~file ~offset with
      | None -> collect (offset + 1) left acc
      | Some vvbn ->
        let acc = match Flexvol.pvbn_of_vvbn vol vvbn with Some p -> p :: acc | None -> acc in
        collect (offset + 1) (left - 1) acc
  in
  match collect 0 (Flexvol.file_blocks vol ~file) [] with
  | [] -> Wafl_block.Chain.empty
  | blocks -> Wafl_block.Chain.of_blocks blocks
