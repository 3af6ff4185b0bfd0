open Wafl_bitmap

type cls = Hot | Warm | Cold | Meta

let cls_name = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold" | Meta -> "meta"
let cls_index = function Hot -> 0 | Warm -> 1 | Cold -> 2 | Meta -> 3

(* Per-volume inference state.  [store] keeps 2 bytes of birth epoch per
   vvbn; [avg] is the EWMA of observed overwrite lifespans in CPs. *)
type vol = { store : Pagestore.t; blocks : int; mutable avg : float }

type t = {
  classes : int;
  meta_file : int option;
  mutable cp : int;
  vols : (int, vol) Hashtbl.t;
  classified : int array; (* per-cls decision counters, indexed by cls_index *)
}

let create ?meta_file ~classes () =
  if classes < 1 || classes > 4 then invalid_arg "Temperature.create: classes in 1..4";
  { classes; meta_file; cp = 0; vols = Hashtbl.create 8; classified = Array.make 4 0 }

let classes t = t.classes
let advance_cp t = t.cp <- t.cp + 1

(* Births are stored as 16-bit little-endian (cp mod 65535) + 1 so that a
   zero-filled store reads back as "unknown".  The store is never mapped
   into an installed mmap directory's file sequence: inferred temperature
   is a reconstructible cache, not persisted state, and must not perturb
   the remount mapping. *)
let vol_state t ~uid ~blocks =
  match Hashtbl.find_opt t.vols uid with
  | Some v -> v
  | None ->
    let words = ((2 * blocks) + 7) / 8 in
    let v = { store = Pagestore.create words; blocks; avg = 8.0 } in
    Hashtbl.add t.vols uid v;
    v

let encode_cp cp = (cp mod 65535) + 1

let birth_of v vvbn =
  let lo = Pagestore.byte v.store (2 * vvbn) in
  let hi = Pagestore.byte v.store ((2 * vvbn) + 1) in
  lo lor (hi lsl 8)

let note_birth t ~uid ~blocks ~vvbn =
  let v = vol_state t ~uid ~blocks in
  if vvbn >= 0 && vvbn < v.blocks then begin
    let e = encode_cp t.cp in
    Pagestore.set_byte v.store (2 * vvbn) (e land 0xff);
    Pagestore.set_byte v.store ((2 * vvbn) + 1) (e lsr 8)
  end

let avg_lifespan t ~uid =
  Option.map (fun v -> v.avg) (Hashtbl.find_opt t.vols uid)

(* SepBIT-style inference: the lifespan of the version an overwrite kills
   estimates the invalidation time of the version it creates.  Short
   inferred lifetime -> Hot; far beyond the volume's running average ->
   Cold; everything else (including fresh writes and unknown births) is
   Warm.  The metafile override wins over inference. *)
let classify t ~uid ~blocks ~file ~prev =
  let c =
    match t.meta_file with
    | Some mf when file = mf -> Meta
    | _ -> (
      match prev with
      | None -> Warm
      | Some vvbn ->
        let v = vol_state t ~uid ~blocks in
        if vvbn < 0 || vvbn >= v.blocks then Warm
        else
          let b = birth_of v vvbn in
          if b = 0 then Warm
          else
            let lifespan =
              (t.cp mod 65535) - (b - 1) |> fun d -> (d + 65535) mod 65535
            in
            let l = float_of_int lifespan in
            let avg = v.avg in
            v.avg <- avg +. ((l -. avg) /. 8.0);
            if l <= avg then Hot else if l > 4.0 *. avg then Cold else Warm)
  in
  t.classified.(cls_index c) <- t.classified.(cls_index c) + 1;
  c

(* Collapse the four logical classes onto however many routing slots the
   config asked for.  Slot 0 is always the hottest. *)
let class_slot c ~classes =
  if classes <= 1 then 0
  else
    match (classes, c) with
    | 2, Hot -> 0
    | 2, _ -> 1
    | 3, Hot -> 0
    | 3, Warm -> 1
    | 3, _ -> 2
    | _, c -> cls_index c

let slot_of t c = class_slot c ~classes:t.classes
let classified t c = t.classified.(cls_index c)
