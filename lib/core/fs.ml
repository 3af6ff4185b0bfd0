open Wafl_util

type t = {
  config : Config.t;
  aggregate : Aggregate.t;
  walloc : Write_alloc.t;
  vols : Flexvol.t array;
  rng : Rng.t;
  temp : Temperature.t option;  (* Some iff config asks for > 1 class *)
  staged : (int * int * int, Cp.staged) Hashtbl.t;  (* (vol idx, file, offset) *)
  mutable staged_order : (int * int * int) list;
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
  let backend = Config.store_backend run.Config.backend in
  let aggregate = Aggregate.create config in
  let rng = Rng.create ~seed:config.Config.seed in
  let walloc = Write_alloc.create aggregate ~rng:(Rng.split rng) in
  let vols =
    Array.of_list
      (List.map (Flexvol.create ~backend ~pool:(Aggregate.pool aggregate)) config.Config.vols)
  in
  Array.iter (Write_alloc.register_vol walloc) vols;
  let temp =
    let s = run.Config.streams in
    if s.Config.temp_classes > 1 then
      Some
        (Temperature.create ~backend ?meta_file:s.Config.meta_file
           ~classes:s.Config.temp_classes ())
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
      staged = Hashtbl.create 4096;
      staged_order = [];
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
let temperature t = t.temp
let scrub_cursor t = t.scrub_cursor

let vol t name =
  match Array.find_opt (fun v -> String.equal (Flexvol.name v) name) t.vols with
  | Some v -> v
  | None -> raise Not_found

let rng t = t.rng

let vol_index t v =
  let rec go i =
    if i >= Array.length t.vols then invalid_arg "Fs.stage_write: foreign volume"
    else if t.vols.(i) == v then i
    else go (i + 1)
  in
  go 0

let stage_write t ~vol ~file ~offset =
  if offset < 0 then invalid_arg "Fs.stage_write: negative offset";
  let key = (vol_index t vol, file, offset) in
  if not (Hashtbl.mem t.staged key) then t.staged_order <- key :: t.staged_order;
  Hashtbl.replace t.staged key { Cp.vol; file; offset }

let staged_count t = Hashtbl.length t.staged

let staged_ops t =
  List.rev_map
    (fun key ->
      let s = Hashtbl.find t.staged key in
      (Flexvol.name s.Cp.vol, s.Cp.file, s.Cp.offset))
    t.staged_order

let run_cp t =
  let writes = List.rev_map (fun key -> Hashtbl.find t.staged key) t.staged_order in
  (* run the CP before draining the staged table: it stands in for the
     NVRAM log, which survives a mid-CP crash so the ops can be replayed
     (re-running a partial CP is idempotent under COW) *)
  let report = Cp.run ?temp:t.temp t.walloc writes in
  Hashtbl.reset t.staged;
  t.staged_order <- [];
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
  (* walk offsets until a gap longer than a window, so dense files (our
     workloads) terminate without a sparse-file index *)
  let rec collect offset acc misses =
    if misses > 4096 then acc
    else begin
      match Flexvol.read_file vol ~file ~offset with
      | Some vvbn -> (
        match Flexvol.pvbn_of_vvbn vol vvbn with
        | Some pvbn -> collect (offset + 1) (pvbn :: acc) 0
        | None -> collect (offset + 1) acc (misses + 1))
      | None -> collect (offset + 1) acc (misses + 1)
    end
  in
  match collect 0 [] 0 with
  | [] -> Wafl_block.Chain.empty
  | blocks -> Wafl_block.Chain.of_blocks blocks
