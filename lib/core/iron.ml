open Wafl_bitmap
open Wafl_aa

type finding =
  | Range_score_drift of { range : int; aa : int; cached : int; actual : int }
  | Vol_score_drift of { vol : string; aa : int; cached : int; actual : int }
  | Dangling_container of { vol : string; vvbn : int; pvbn : int }
  | Cross_link of { pvbn : int; first : string; later : string }
  | Orphan_blocks of { count : int }
  | Orphan_vvbns of { vol : string; count : int }

let pp_finding fmt = function
  | Range_score_drift { range; aa; cached; actual } ->
    Format.fprintf fmt "range %d AA %d: cached score %d, bitmap says %d" range aa cached actual
  | Vol_score_drift { vol; aa; cached; actual } ->
    Format.fprintf fmt "volume %s AA %d: cached score %d, bitmap says %d" vol aa cached actual
  | Dangling_container { vol; vvbn; pvbn } ->
    Format.fprintf fmt "volume %s vvbn %d points at free pvbn %d" vol vvbn pvbn
  | Cross_link { pvbn; first; later } ->
    Format.fprintf fmt "pvbn %d referenced by several virtual blocks (%s, %s)" pvbn later first
  | Orphan_blocks { count } ->
    Format.fprintf fmt "%d allocated physical blocks have no volume owner" count
  | Orphan_vvbns { vol; count } ->
    Format.fprintf fmt "volume %s: %d allocated virtual blocks have no container entry" vol count

(* PVBN -> first referrer [vvbn * n + pos] of the [n] volumes, or -1. *)
let owners fs =
  let vols = Fs.vols fs in
  let n = Array.length vols in
  let owner = Array.make (Aggregate.total_blocks (Fs.aggregate fs)) (-1) in
  Array.iteri
    (fun pos vol ->
      for vvbn = 0 to Flexvol.blocks vol - 1 do
        match Flexvol.pvbn_of_vvbn vol vvbn with
        | Some pvbn when owner.(pvbn) < 0 -> owner.(pvbn) <- (vvbn * n) + pos
        | Some _ | None -> ()
      done)
    vols;
  owner

(* A VVBN leaked by a lost free: allocated, no container entry and no
   free on its way.  Zombies keep their container entry. *)
let orphan_vvbn vol vvbn =
  let am = Flexvol.activemap vol in
  Activemap.is_allocated am vvbn
  && Option.is_none (Flexvol.pvbn_of_vvbn vol vvbn)
  && not (Activemap.has_pending_free am vvbn)

let check_body fs =
  let aggregate = Fs.aggregate fs in
  let mf = Aggregate.metafile aggregate in
  let findings = ref [] in
  let note finding = findings := finding :: !findings in
  (* After a lazy mount, untouched spaces carry seeded (approximate)
     scores by design; materialize them before the drift scan so Iron
     compares real caches against the bitmap instead of flagging the
     seeds. *)
  let spaces = Fs.spaces fs in
  Array.iter Space.touch spaces;
  (* 1. cached AA scores vs bitmap truth (pending deltas excluded: run this
        between CPs) *)
  Array.iter
    (fun (s : Space.t) ->
      if Score.is_empty s.Space.delta then
        Array.iteri
          (fun aa cached ->
            let actual = Space.score_now s aa in
            if cached <> actual then
              note
                (match s.Space.label with
                | Space.Range range -> Range_score_drift { range; aa; cached; actual }
                | Space.Vol vol -> Vol_score_drift { vol; aa; cached; actual }))
          s.Space.scores)
    spaces;
  (* 2. container references, dangling and cross-linked, and each
        volume's orphan VVBNs *)
  let vols = Fs.vols fs in
  let n = Array.length vols in
  let owner = owners fs in
  Array.iteri
    (fun pos vol ->
      let orphans = ref 0 in
      for vvbn = 0 to Flexvol.blocks vol - 1 do
        match Flexvol.pvbn_of_vvbn vol vvbn with
        | None -> if orphan_vvbn vol vvbn then incr orphans
        | Some pvbn ->
          if not (Metafile.is_allocated mf pvbn) then
            note (Dangling_container { vol = Flexvol.name vol; vvbn; pvbn });
          let first = owner.(pvbn) in
          if first <> (vvbn * n) + pos then
            note
              (Cross_link
                 { pvbn; first = Flexvol.name vols.(first mod n); later = Flexvol.name vol })
      done;
      if !orphans > 0 then note (Orphan_vvbns { vol = Flexvol.name vol; count = !orphans }))
    vols;
  (* 3. orphans: allocated physical blocks without a container reference *)
  let orphans = ref 0 in
  for pvbn = 0 to Aggregate.total_blocks aggregate - 1 do
    if Metafile.is_allocated mf pvbn && owner.(pvbn) < 0 then incr orphans
  done;
  if !orphans > 0 then note (Orphan_blocks { count = !orphans });
  (List.rev !findings, owner)

type authority = Bitmap_authority | Container_authority

let repair_body ?(authority = Bitmap_authority) fs =
  let findings, owner = check_body fs in
  let aggregate = Fs.aggregate fs in
  let mf = Aggregate.metafile aggregate in
  let repaired = ref 0 in
  let drifted = ref [] in
  let note_drift space = if not (List.memq space !drifted) then drifted := space :: !drifted in
  let container_fixes = ref 0 in
  List.iter
    (function
      | Range_score_drift { range; _ } ->
        note_drift (Aggregate.ranges aggregate).(range).Aggregate.space
      | Vol_score_drift { vol; _ } -> note_drift (Flexvol.space (Fs.vol fs vol))
      | Dangling_container { vol; vvbn; pvbn } -> (
        match authority with
        | Bitmap_authority ->
          (* sever the reference; the vvbn itself is released like any other
             COW free so the space books stay balanced *)
          let v = Fs.vol fs vol in
          Flexvol.queue_unmap v ~vvbn;
          ignore (Flexvol.commit_frees v);
          incr repaired
        | Container_authority ->
          (* the namespace reached NVRAM, so it is the truth: the bitmap
             lost the allocation (torn page) — re-mark the block *)
          if not (Metafile.is_allocated mf pvbn) then Aggregate.allocate aggregate ~pvbn;
          incr repaired;
          incr container_fixes)
      | Orphan_blocks _ -> (
        match authority with
        | Bitmap_authority -> ()
        | Container_authority ->
          (* free every allocated physical block no container references.
             The dangling fixes above changed bitmap bits only, never an
             owner, so the check's owner map still holds.  A block with a
             pending delayed free is already on its way out — re-queueing
             it would trip the activemap's dedupe guard (live systems
             scrub-repaired between CPs carry such frees) *)
          let am = Aggregate.activemap aggregate in
          let freed = ref 0 in
          for pvbn = 0 to Aggregate.total_blocks aggregate - 1 do
            if
              owner.(pvbn) < 0
              && Metafile.is_allocated mf pvbn
              && not (Activemap.has_pending_free am pvbn)
            then begin
              Aggregate.queue_free aggregate ~pvbn;
              incr freed
            end
          done;
          ignore (Aggregate.commit_frees aggregate);
          repaired := !repaired + !freed;
          incr container_fixes)
      | Orphan_vvbns { vol; _ } -> (
        match authority with
        | Bitmap_authority -> ()
        | Container_authority ->
          (* the frees a crash lost: queue and commit them, then rescore
             the volume *)
          let v = Fs.vol fs vol in
          for vvbn = 0 to Flexvol.blocks v - 1 do
            if orphan_vvbn v vvbn then begin
              Activemap.queue_free (Flexvol.activemap v) vvbn;
              incr repaired
            end
          done;
          ignore (Flexvol.commit_frees v);
          Rebuild.request aggregate (Rebuild.Spaces [ Flexvol.space v ]))
      | Cross_link _ -> ())
    findings;
  (* Drift in a range, or a container fix (which rewrote aggregate bitmap
     bits under any range), rescores every range from truth; a drifted
     volume is rebuilt on its own. *)
  let in_range (s : Space.t) =
    match s.Space.label with Space.Range _ -> true | Space.Vol _ -> false
  in
  if List.exists in_range !drifted || !container_fixes > 0 then
    Rebuild.request aggregate Rebuild.Full;
  Rebuild.request aggregate
    (Rebuild.Spaces (List.filter (fun s -> not (in_range s)) (List.rev !drifted)));
  (findings, !repaired + List.length !drifted)

(* Consistency checking and repair are each one [Iron] span; [repair]
   wraps its embedded check in the same span rather than nesting two. *)
let in_span f =
  Wafl_telemetry.Telemetry.span_enter Wafl_telemetry.Span.Iron;
  Fun.protect ~finally:(fun () -> Wafl_telemetry.Telemetry.span_exit Wafl_telemetry.Span.Iron) f

let check fs = in_span (fun () -> fst (check_body fs))
let repair ?authority fs = in_span (fun () -> repair_body ?authority fs)
