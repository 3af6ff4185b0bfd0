open Wafl_util

type t = {
  max_score : int;
  bin_width : int;
  list_capacity : int;
  histo : Histo.t;         (* counts ALL AAs by score bin *)
  score_of : int array;    (* authoritative tracked score per AA *)
  entries : int array;     (* list page: AA ids, grouped by bin, highest bin first *)
  pos : int array;         (* AA id -> index in entries, -1 when unlisted *)
  seg_len : int array;     (* per bin, number of listed AAs *)
  starts : int array;      (* per bin, segment start: {!seg_starts}'s scratch *)
  mutable count : int;
}

let bin_of t score = Histo.bin_of_value t.histo score

let create ?bin_width ?(capacity = 1000) ~max_score ~scores () =
  let bin_width = match bin_width with Some w -> w | None -> max 1 (max_score / 32) in
  assert (max_score > 0 && bin_width > 0 && capacity > 0);
  let histo = Histo.create ~max_value:max_score ~bin_width in
  let t =
    {
      max_score;
      bin_width;
      list_capacity = capacity;
      histo;
      score_of = Array.copy scores;
      entries = Array.make capacity 0;
      pos = Array.make (Array.length scores) (-1);
      seg_len = Array.make (Histo.bins histo) 0;
      starts = Array.make (Histo.bins histo) 0;
      count = 0;
    }
  in
  Array.iter (fun s -> Histo.add histo s) scores;
  t

let n_aas t = Array.length t.score_of
let bin_width t = t.bin_width
let max_score t = t.max_score
let count t = t.count
let bins t = Histo.bins t.histo
let histogram_count t ~bin = Histo.count t.histo bin
let error_margin t = float_of_int t.bin_width /. float_of_int t.max_score

let score t ~aa = t.score_of.(aa)
let mem_list t ~aa = t.pos.(aa) >= 0

(* start index of bin b's segment = total length of higher-bin segments,
   computed into the reused [starts] array: the per-update list moves
   allocate nothing *)
let seg_starts t =
  let starts = t.starts in
  let acc = ref 0 in
  for b = bins t - 1 downto 0 do
    starts.(b) <- !acc;
    acc := !acc + t.seg_len.(b)
  done;
  starts

let highest_populated_bin t = Histo.highest_nonempty t.histo

(* The highest and lowest bins with a listed AA, -1 when none. *)
let rec highest_listed_from t b =
  if b < 0 || t.seg_len.(b) > 0 then b else highest_listed_from t (b - 1)

let highest_listed_bin t = highest_listed_from t (bins t - 1)

let rec lowest_listed_from t b =
  if b >= bins t then -1 else if t.seg_len.(b) > 0 then b else lowest_listed_from t (b + 1)

let lowest_listed_bin t = lowest_listed_from t 0

let pick_best t = if t.count = 0 then None else begin
    let aa = t.entries.(0) in
    Some (aa, t.score_of.(aa))
  end

let top_score t = if t.count = 0 then 0 else t.score_of.(t.entries.(0))

(* Remove the listed AA at entries position [p], belonging to bin [b].
   Fill the hole with the last element of b's segment, then shift each
   lower listed bin left by one (moving its last element to its front-1) so
   the segments stay packed. *)
let[@inline] fill_hole t ~hole ~src =
  if src <> hole then begin
    let moved = t.entries.(src) in
    t.entries.(hole) <- moved;
    t.pos.(moved) <- hole
  end

let remove_at t p b =
  let starts = seg_starts t in
  let removed = t.entries.(p) in
  t.pos.(removed) <- -1;
  let src = starts.(b) + t.seg_len.(b) - 1 in
  fill_hole t ~hole:p ~src;
  let hole = ref src in
  t.seg_len.(b) <- t.seg_len.(b) - 1;
  (* lower bins, highest first *)
  for j = b - 1 downto 0 do
    if t.seg_len.(j) > 0 then begin
      let src = starts.(j) + t.seg_len.(j) - 1 in
      fill_hole t ~hole:!hole ~src;
      hole := src
    end
  done;
  t.count <- t.count - 1

(* Insert AA into bin b's segment; requires count < capacity and aa not
   listed.  The hole starts past the last element and is walked up through
   the front of each listed bin below b — each such bin has exactly one AA
   "moved down" to the next position, per the paper. *)
let insert_into t aa b =
  assert (t.count < t.list_capacity && t.pos.(aa) < 0);
  let starts = seg_starts t in
  let hole = ref t.count in
  for j = 0 to b - 1 do
    if t.seg_len.(j) > 0 then begin
      let src = starts.(j) in
      fill_hole t ~hole:!hole ~src;
      hole := src
    end
  done;
  t.entries.(!hole) <- aa;
  t.pos.(aa) <- !hole;
  t.seg_len.(b) <- t.seg_len.(b) + 1;
  t.count <- t.count + 1

let evict_lowest t =
  let j = lowest_listed_bin t in
  if j >= 0 then begin
    (* lowest bin's segment is last; its last element sits at count-1 *)
    let victim = t.entries.(t.count - 1) in
    t.pos.(victim) <- -1;
    t.seg_len.(j) <- t.seg_len.(j) - 1;
    t.count <- t.count - 1
  end

let maybe_insert t aa b =
  if t.count < t.list_capacity then insert_into t aa b
  else begin
    let j = lowest_listed_bin t in
    if j >= 0 && b > j then begin
      evict_lowest t;
      insert_into t aa b
    end
  end

let take_best t =
  match pick_best t with
  | None -> None
  | Some (aa, s) ->
    remove_at t t.pos.(aa) (bin_of t s);
    Some (aa, s)

(* Claim-aware take: the first listed entry satisfying [keep].  Entries
   are grouped by bin, highest bin first, so the scan finds an AA from
   the best bin that still has an unclaimed member — the same one-bin
   error bound as {!take_best} — without disturbing any other entry. *)
let take_best_filtered t ~keep =
  let rec find i =
    if i >= t.count then None
    else begin
      let aa = t.entries.(i) in
      if keep aa then begin
        let s = t.score_of.(aa) in
        remove_at t i (bin_of t s);
        Some (aa, s)
      end
      else find (i + 1)
    end
  in
  find 0

let update t ~aa ~score:new_score =
  if new_score < 0 || new_score > t.max_score then invalid_arg "Hbps.update: score out of range";
  let old_score = t.score_of.(aa) in
  if new_score <> old_score then begin
    Histo.move t.histo ~from_value:old_score ~to_value:new_score;
    t.score_of.(aa) <- new_score;
    let b_old = bin_of t old_score and b_new = bin_of t new_score in
    if t.pos.(aa) >= 0 then begin
      if b_old <> b_new then begin
        remove_at t t.pos.(aa) b_old;
        maybe_insert t aa b_new
      end
    end
    else
      (* Unlisted AA: a free may have promoted it into the qualifying
         ranges (§3.3.2 "inserted into the list ... index changed");
         [maybe_insert] admits it when there is room or it beats the
         lowest listed bin. *)
      maybe_insert t aa b_new
  end

let is_stale t =
  match highest_populated_bin t with
  | Some hp -> hp > highest_listed_bin t
  | None -> false

let needs_replenish ?low_water t =
  let low_water = match low_water with Some w -> w | None -> t.list_capacity / 4 in
  t.count < low_water || is_stale t

let replenish ?(excluded = fun _ -> false) t =
  (* Clear the list page. *)
  for i = 0 to t.count - 1 do
    t.pos.(t.entries.(i)) <- -1
  done;
  Array.fill t.seg_len 0 (bins t) 0;
  t.count <- 0;
  (* One pass over all AAs, bucketing by bin — the background scan of the
     bitmap metafiles. *)
  let buckets = Array.make (bins t) [] in
  Array.iteri
    (fun aa s -> if not (excluded aa) then begin
         let b = bin_of t s in
         buckets.(b) <- aa :: buckets.(b)
       end)
    t.score_of;
  let b = ref (bins t - 1) in
  while t.count < t.list_capacity && !b >= 0 do
    let rec fill = function
      | [] -> ()
      | aa :: rest ->
        if t.count < t.list_capacity then begin
          (* direct append: bins are processed best-first so segments pack
             naturally in descending bin order *)
          t.entries.(t.count) <- aa;
          t.pos.(aa) <- t.count;
          t.seg_len.(!b) <- t.seg_len.(!b) + 1;
          t.count <- t.count + 1;
          fill rest
        end
    in
    fill buckets.(!b);
    decr b
  done

let to_list t = List.init t.count (fun i -> (t.entries.(i), t.score_of.(t.entries.(i))))

let check_invariant t =
  let ok = ref true in
  (* counts *)
  if Array.fold_left ( + ) 0 t.seg_len <> t.count then ok := false;
  if Histo.total t.histo <> n_aas t then ok := false;
  (* histogram matches score_of *)
  let expected = Array.make (bins t) 0 in
  Array.iter (fun s -> expected.(bin_of t s) <- expected.(bin_of t s) + 1) t.score_of;
  Array.iteri (fun b c -> if Histo.count t.histo b <> c then ok := false) expected;
  (* segment layout: entries grouped by bin, highest first *)
  let starts = seg_starts t in
  Array.iteri
    (fun b len ->
      for i = starts.(b) to starts.(b) + len - 1 do
        let aa = t.entries.(i) in
        if bin_of t t.score_of.(aa) <> b then ok := false;
        if t.pos.(aa) <> i then ok := false
      done)
    t.seg_len;
  (* pos index: listed iff pos >= 0 *)
  Array.iteri
    (fun aa p ->
      if p >= 0 then begin
        if p >= t.count || t.entries.(p) <> aa then ok := false
      end)
    t.pos;
  !ok

let check_complete t =
  let lowest = lowest_listed_bin t in
  if lowest < 0 then t.count = 0
  else begin
    let ok = ref (check_invariant t) in
    for b = lowest + 1 to bins t - 1 do
      if t.seg_len.(b) <> Histo.count t.histo b then ok := false
    done;
    !ok
  end
