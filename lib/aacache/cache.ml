open Wafl_telemetry

type backend = Raid_aware of Max_heap.t | Raid_agnostic of Hbps.t

type stats = {
  picks : int;
  updates : int;
  replenishes : int;
  work : int;
  entries : int;
  score_error_last : float;
  score_error_max : float;
}

type t = {
  backend : backend;
  space : int;
  mutable picks : int;
  mutable updates : int;
  mutable replenishes : int;
  mutable work : int;
  mutable score_error_last : float;
  mutable score_error_max : float;
}

let make ?(space = -1) backend =
  {
    backend;
    space;
    picks = 0;
    updates = 0;
    replenishes = 0;
    work = 0;
    score_error_last = 0.0;
    score_error_max = 0.0;
  }

let backend t = t.backend
let space t = t.space

let raid_aware ?space ~scores () = make ?space (Raid_aware (Max_heap.of_scores scores))

let raid_agnostic ?space ?bin_width ?capacity ~max_score ~scores () =
  make ?space (Raid_agnostic (Hbps.create ?bin_width ?capacity ~max_score ~scores ()))

(* Abstract work estimates: a heap op costs ~log2(size) comparisons, an
   HBPS op a constant handful of bin moves. *)
let heap_op_work heap = max 1 (int_of_float (Float.log2 (float_of_int (max 2 (Max_heap.size heap)))))
let hbps_op_work = 4

(* Upper bound on how far the picked score sits below the best populated
   histogram bin's range.  With the list in sync (§3.3) the pick comes from
   that very bin, so the bound stays below bin_width/max_score = 3.125%. *)
let note_hbps_pick_error t h score =
  match Hbps.highest_populated_bin h with
  | None -> ()
  | Some hp ->
    let bin_top = min (Hbps.max_score h) (((hp + 1) * Hbps.bin_width h) - 1) in
    let err = float_of_int (max 0 (bin_top - score)) /. float_of_int (Hbps.max_score h) in
    t.score_error_last <- err;
    if err > t.score_error_max then t.score_error_max <- err

let take_best t =
  t.picks <- t.picks + 1;
  match t.backend with
  | Raid_aware h ->
    t.work <- t.work + heap_op_work h;
    let best = Max_heap.extract_best h in
    (match best with
    | Some (aa, score) -> Telemetry.trace_aa_pick ~space:t.space ~aa ~score
    | None -> ());
    best
  | Raid_agnostic h ->
    t.work <- t.work + hbps_op_work;
    let best = Hbps.take_best h in
    (match best with
    | Some (aa, score) ->
      note_hbps_pick_error t h score;
      Telemetry.trace_aa_pick ~space:t.space ~aa ~score
    | None -> ());
    best

(* Claim-aware take: same accounting as {!take_best}, dispatching to the
   backend's filtered extraction so AAs owned by another writer are
   skipped without losing score order. *)
let take_best_filtered t ~keep =
  t.picks <- t.picks + 1;
  match t.backend with
  | Raid_aware h ->
    t.work <- t.work + heap_op_work h;
    let best = Max_heap.extract_best_filtered h ~keep in
    (match best with
    | Some (aa, score) -> Telemetry.trace_aa_pick ~space:t.space ~aa ~score
    | None -> ());
    best
  | Raid_agnostic h ->
    t.work <- t.work + hbps_op_work;
    let best = Hbps.take_best_filtered h ~keep in
    (match best with
    | Some (aa, score) ->
      note_hbps_pick_error t h score;
      Telemetry.trace_aa_pick ~space:t.space ~aa ~score
    | None -> ());
    best

let peek_best_score t =
  match t.backend with
  | Raid_aware h -> Max_heap.best_score h
  | Raid_agnostic h -> Option.map snd (Hbps.pick_best h)

let best_score t =
  match t.backend with
  | Raid_aware h -> Max_heap.top_score h
  | Raid_agnostic h -> Hbps.top_score h

(* Each update is charged at the batch's starting size, as one batch. *)
let cp_update t refile =
  let before = t.updates in
  match t.backend with
  | Raid_aware h ->
    let per = heap_op_work h in
    refile (fun aa score ->
        t.updates <- t.updates + 1;
        Max_heap.apply_update h ~aa ~score);
    t.work <- t.work + ((t.updates - before) * per)
  | Raid_agnostic h ->
    refile (fun aa score ->
        t.updates <- t.updates + 1;
        Hbps.update h ~aa ~score);
    t.work <- t.work + ((t.updates - before) * hbps_op_work);
    if Hbps.needs_replenish h then begin
      t.replenishes <- t.replenishes + 1;
      t.work <- t.work + Hbps.n_aas h;
      Hbps.replenish h;
      Telemetry.trace_cache_replenish ~space:t.space ~listed:(Hbps.count h)
    end

let stats t =
  {
    picks = t.picks;
    updates = t.updates;
    replenishes = t.replenishes;
    work = t.work;
    entries = (match t.backend with Raid_aware h -> Max_heap.size h | Raid_agnostic h -> Hbps.count h);
    score_error_last = t.score_error_last;
    score_error_max = t.score_error_max;
  }

let reset_stats t =
  t.picks <- 0;
  t.updates <- 0;
  t.replenishes <- 0;
  t.work <- 0;
  t.score_error_last <- 0.0;
  t.score_error_max <- 0.0

