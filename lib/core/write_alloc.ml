open Wafl_util
open Wafl_bitmap
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry

(* Per-space allocation cursor (one per range per class row, one per
   volume): a preallocated ring holding the free positions of the AA
   currently being filled (harvested word-at-a-time, consumed front to
   back), plus the AAs taken since the last CP.  The ring is sized to a
   full AA once, at cursor creation, so the steady-state pick -> harvest
   -> allocate loop allocates no per-block heap words.

   Taken AAs live in a flat id array (an AA is taken at most once per CP —
   the claim flag filters re-picks), and every take claims the AA in its
   space's claim flags, which every class row shares. *)
type cursor = {
  mutable ring : int array;       (* harvested free positions; [head, len) live *)
  mutable head : int;
  mutable len : int;
  mutable ring_aa : int;          (* the AA the live entries belong to *)
  mutable ring_epoch : int;       (* CP epoch the live entries were harvested in *)
  mutable taken_list : int array; (* AAs checked out of the cache this CP *)
  mutable n_taken : int;
  quarantined : (int, unit) Hashtbl.t;  (* AAs overlapping device bad ranges *)
  mutable scan_pos : int;         (* First_fit scan position *)
}

type t = {
  aggregate : Aggregate.t;
  rng : Rng.t;
  classes : int;                          (* temperature routing slots (>= 1) *)
  cursors : cursor array array;           (* [class][range]; rows share claims *)
  vol_spaces : Space.t array;             (* the system's volumes, by position *)
  vol_cursors : cursor array;             (* one cursor per volume, same order *)
  mutable epoch : int;                    (* bumped at every cp_finish *)
  words : int ref;                        (* cumulative 32-bit bitmap words read *)
  mutable harvested : int;                (* cumulative VBNs harvested into rings *)
  elig : int array;                       (* scratch: eligible range indices *)
  weight : int array;                     (* scratch: weight per eligible entry *)
  mutable candidates_scanned : int;
  mutable phys_taken : int;
  mutable phys_score_sum : int;
  mutable virt_taken : int;
  mutable virt_score_sum : int;
}

let new_cursor (s : Space.t) =
  {
    ring = Array.make (max 1 (Topology.full_aa_capacity s.Space.topology)) 0;
    head = 0;
    len = 0;
    ring_aa = 0;
    ring_epoch = 0;
    taken_list = Array.make 16 0;
    n_taken = 0;
    quarantined = Hashtbl.create 8;
    scan_pos = 0;
  }

let push_taken cursor aa =
  if cursor.n_taken = Array.length cursor.taken_list then begin
    let bigger = Array.make (2 * Array.length cursor.taken_list) 0 in
    Array.blit cursor.taken_list 0 bigger 0 cursor.n_taken;
    cursor.taken_list <- bigger
  end;
  cursor.taken_list.(cursor.n_taken) <- aa;
  cursor.n_taken <- cursor.n_taken + 1

let create aggregate ~rng ~vols =
  let ranges = Aggregate.ranges aggregate in
  let run = (Aggregate.config aggregate).Config.run in
  let classes = run.Config.streams.Config.temp_classes in
  {
    aggregate;
    rng;
    classes;
    (* Every class row claims in the range space's flags, so two classes
       can never check out the same AA within a CP. *)
    cursors =
      Array.init classes (fun _ ->
          Array.map (fun (r : Aggregate.range) -> new_cursor r.Aggregate.space) ranges);
    vol_spaces = Array.map Flexvol.space vols;
    vol_cursors = Array.map (fun v -> new_cursor (Flexvol.space v)) vols;
    epoch = 0;
    words = ref 0;
    harvested = 0;
    elig = Array.make (Array.length ranges) 0;
    weight = Array.make (Array.length ranges) 0;
    candidates_scanned = 0;
    phys_taken = 0;
    phys_score_sum = 0;
    virt_taken = 0;
    virt_score_sum = 0;
  }

let aggregate t = t.aggregate

(* Claim-aware cache take: skip over empty-scored AAs, bounded so a
   drained cache terminates.  The take skips AAs another class row has
   claimed (the space's [unclaimed] predicate) and claims the one it
   returns.  Top-level and returning the cache's own option, so a pick
   allocates no closure and no second tuple. *)
let rec try_take (s : Space.t) c cursor attempts =
  if attempts = 0 then None
  else begin
    match Cache.take_best_filtered c ~keep:s.Space.unclaimed with
    | None -> None
    | Some (aa, score) as taken ->
      Bytes.set s.Space.claimed aa '\001';
      push_taken cursor aa;
      if score > 0 then taken else try_take s c cursor (attempts - 1)
  end

(* The §4.1 baseline: uniformly random AA, regardless of emptiness. *)
let rec try_random t (s : Space.t) attempts =
  if attempts = 0 then None
  else begin
    let aa = Rng.int t.rng (Topology.aa_count s.Space.topology) in
    let free = Space.score_now s aa in
    if free > 0 then begin
      Telemetry.trace_aa_pick ~space:(Space.trace_id s) ~aa ~score:free;
      Some (aa, free)
    end
    else try_random t s (attempts - 1)
  end

let rec scan_first_fit (s : Space.t) cursor steps pos =
  let n_aas = Topology.aa_count s.Space.topology in
  if steps > n_aas then None
  else begin
    let free = Space.score_now s pos in
    if free > 0 then begin
      cursor.scan_pos <- (pos + 1) mod n_aas;
      Telemetry.trace_aa_pick ~space:(Space.trace_id s) ~aa:pos ~score:free;
      Some (pos, free)
    end
    else scan_first_fit s cursor (steps + 1) ((pos + 1) mod n_aas)
  end

(* Pick the next AA of a space under its policy; the cacheless policies
   read free counts from the bitmap.  A cache-backed pick is traced by the
   cache itself.  Returns (aa, score-at-take) or None. *)
let pick_aa t (s : Space.t) cursor =
  match s.Space.policy with
  | Config.Best_aa -> (
    match s.Space.cache with None -> None | Some c -> try_take s c cursor 8)
  | Config.Random_aa -> try_random t s 64
  | Config.First_fit -> scan_first_fit s cursor 0 cursor.scan_pos

(* A range take is the physical trace, a volume take the virtual one. *)
let note_take t (s : Space.t) ~aa ~score =
  (match s.Space.label with
  | Space.Range _ ->
    t.phys_taken <- t.phys_taken + 1;
    t.phys_score_sum <- t.phys_score_sum + score
  | Space.Vol _ ->
    t.virt_taken <- t.virt_taken + 1;
    t.virt_score_sum <- t.virt_score_sum + score);
  t.candidates_scanned <- t.candidates_scanned + Topology.aa_capacity s.Space.topology aa

let note_harvest t ~words0 ~count =
  t.harvested <- t.harvested + count;
  Telemetry.add "write_alloc.words_scanned" (!(t.words) - words0);
  Telemetry.add "write_alloc.vbns_harvested" count;
  Telemetry.max_gauge "write_alloc.ring_high_water" (float_of_int count)

(* Drop ring entries that predate the last CP boundary and have since been
   allocated: CP-external writers (mount, aging, repair) may touch the
   bitmap between CPs.  Within one epoch the ring needs no re-check —
   entries are free at harvest, mid-CP frees only queue (the bitmap bit
   stays set until commit), and every allocation drains through this
   cursor — which is what lets the consume path skip the per-block
   [is_allocated] probe the list-based queue paid. *)
let revalidate t cursor mf =
  if cursor.ring_epoch <> t.epoch then begin
    cursor.ring_epoch <- t.epoch;
    let rec compact i k =
      if i >= cursor.len then k
      else begin
        let v = cursor.ring.(i) in
        if Metafile.is_allocated mf v then compact (i + 1) k
        else begin
          cursor.ring.(k) <- v;
          compact (i + 1) (k + 1)
        end
      end
    in
    let live = compact cursor.head 0 in
    cursor.head <- 0;
    cursor.len <- live
  end

(* Does the AA (its range-local extents) overlap a permanent bad range of
   the range's fault device?  Only called with a fault handle attached. *)
let aa_overlaps_fault (s : Space.t) dev aa =
  List.exists
    (fun e ->
      Wafl_fault.Fault.range_faulty dev ~start:(Wafl_block.Extent.start e)
        ~len:(Wafl_block.Extent.len e))
    (Topology.extents_of_aa s.Space.topology aa)

(* Refill a cursor's ring from the next AA of its space; false when no AA
   with free blocks is available.  A pick can harvest zero blocks even with
   a positive cached score: a ring that survived the last CP may have
   already consumed the AA's blocks that the CP re-filed it with.  Such an
   AA is simply spent — retry with the next pick.

   [fault] is the range's fault device ([None] for a volume).  An AA
   overlapping a permanent bad range is quarantined instead of harvested:
   it stays claimed and taken (so a re-pick this CP is impossible) but the
   quarantine set keeps cp_finish from ever re-filing it, and the pick
   retries.  Quarantine retries are bounded so the cacheless policies
   (which pick by free count and cannot learn) give up instead of spinning
   on an all-bad range. *)
let rec refill_guarded t s cursor ~fault qbudget =
  (* Lazy-mount first touch: a stale space materializes its exact scores
     and cache here, before the pick trusts either. *)
  Space.touch s;
  Telemetry.span_enter Span.Pick;
  let picked = pick_aa t s cursor in
  Telemetry.span_exit Span.Pick;
  match picked with
  | None -> false
  | Some (aa, score) ->
    let bad = match fault with Some dev -> aa_overlaps_fault s dev aa | None -> false in
    if bad then begin
      if qbudget = 0 then false
      else begin
        Hashtbl.replace cursor.quarantined aa ();
        Telemetry.incr "fault.aa_quarantined";
        refill_guarded t s cursor ~fault (qbudget - 1)
      end
    end
    else begin
      note_take t s ~aa ~score;
      let words0 = !(t.words) in
      Telemetry.span_enter Span.Harvest;
      let count = Space.harvest s aa ~dst:cursor.ring ~words:t.words in
      Telemetry.span_exit Span.Harvest;
      cursor.head <- 0;
      cursor.len <- count;
      cursor.ring_aa <- aa;
      cursor.ring_epoch <- t.epoch;
      note_harvest t ~words0 ~count;
      count > 0 || refill_guarded t s cursor ~fault qbudget
    end

let refill t s cursor ~fault =
  match fault with
  | Some dev when not (Wafl_fault.Fault.online dev) -> false
  | _ -> refill_guarded t s cursor ~fault 64

(* The ring-pop loop, top-level so the steady-state path allocates no
   closure.  Pops need no [is_allocated] recheck (see [revalidate]); a
   volume's pop reserves the VVBN at once, so a re-gathered AA cannot
   offer it again. *)
let rec take_loop t s cursor ~fault dst pos stop =
  if pos >= stop then pos
  else if cursor.head < cursor.len then begin
    let v = cursor.ring.(cursor.head) in
    cursor.head <- cursor.head + 1;
    Space.allocate_harvested s ~aa:cursor.ring_aa v;
    dst.(pos) <- v;
    take_loop t s cursor ~fault dst (pos + 1) stop
  end
  else if refill t s cursor ~fault then take_loop t s cursor ~fault dst pos stop
  else pos

(* Take up to [want] positions from one space into [dst] at [pos]; returns
   the new fill position.  Allocation-free while the ring lasts. *)
let take_into t (s : Space.t) cursor ~fault ~dst ~pos want =
  revalidate t cursor (Activemap.metafile s.Space.activemap);
  take_loop t s cursor ~fault dst pos (pos + want)

let take_range t (r : Aggregate.range) row ~dst ~pos want =
  take_into t r.Aggregate.space row.(r.Aggregate.index) ~fault:r.Aggregate.fault ~dst ~pos want

let best_score_of_range (range : Aggregate.range) =
  match range.Aggregate.fault with
  | Some dev when not (Wafl_fault.Fault.online dev) ->
    (* an offline device offers nothing, whatever its cache says *)
    0
  | _ -> Space.best_score range.Aggregate.space

(* The fan-out stages of [allocate_pvbns_into], top-level (closure-free):
   the whole call must allocate nothing when served from rings. *)

let rec filter_elig t ranges min_score i m =
  if i >= Array.length ranges then m
  else if best_score_of_range ranges.(i) >= min_score then begin
    t.elig.(m) <- i;
    filter_elig t ranges min_score (i + 1) (m + 1)
  end
  else filter_elig t ranges min_score (i + 1) m

(* Weight each range by its best AA score: emptier groups get a larger
   share of the CP's blocks (§4.2).  Weights are computed once per call —
   not re-derived every mop-up round. *)
let rec weigh_elig t ranges m k total =
  if k >= m then total
  else begin
    let w = max 1 (best_score_of_range ranges.(t.elig.(k))) in
    t.weight.(k) <- w;
    weigh_elig t ranges m (k + 1) (total + w)
  end

let rec take_shares t ranges row dst n m total_weight k got =
  if k >= m then got
  else begin
    let share = n * t.weight.(k) / total_weight in
    let got =
      if share > 0 then take_range t ranges.(t.elig.(k)) row ~dst ~pos:got share else got
    in
    take_shares t ranges row dst n m total_weight (k + 1) got
  end

(* Rounding remainder and any shortfall: round-robin over eligible ranges
   until satisfied or nothing more is allocatable.  Progress is the fill
   position itself — no per-round list lengths. *)
let rec mop_round t ranges row dst stop m k got =
  if k >= m || got >= stop then got
  else begin
    mop_round t ranges row dst stop m (k + 1)
      (take_range t ranges.(t.elig.(k)) row ~dst ~pos:got (min 64 (stop - got)))
  end

let rec mop_up t ranges row dst stop m got =
  if got >= stop then got
  else begin
    let got' = mop_round t ranges row dst stop m 0 got in
    if got' > got then mop_up t ranges row dst stop m got' else got'
  end

(* One class row fills [dst.(0 .. n-1)]; returns the fill position
   reached. *)
let allocate_pvbns_into ?(cls = 0) t ~dst n =
  if n <= 0 then 0
  else begin
    let row = t.cursors.(if cls < 0 || cls >= t.classes then 0 else cls) in
    let ranges = Aggregate.ranges t.aggregate in
    let nr = Array.length ranges in
    let threshold = (Aggregate.config t.aggregate).Config.rg_score_threshold in
    (* Eligible ranges into the preallocated [elig] scratch. *)
    let m =
      match threshold with
      | None ->
        for i = 0 to nr - 1 do
          t.elig.(i) <- i
        done;
        nr
      | Some min_score ->
        let m = filter_elig t ranges min_score 0 0 in
        if m > 0 then m
        else begin
          (* never stall entirely: fall back to every range (§3.3.1) *)
          for i = 0 to nr - 1 do
            t.elig.(i) <- i
          done;
          nr
        end
    in
    let total_weight = weigh_elig t ranges m 0 0 in
    let after_shares = take_shares t ranges row dst n m total_weight 0 0 in
    mop_up t ranges row dst n m after_shares
  end

let temp_classes t = t.classes

let allocate_vvbns_into t v ~dst n =
  if n <= 0 then 0 else take_into t t.vol_spaces.(v) t.vol_cursors.(v) ~fault:None ~dst ~pos:0 n

(* Whether any of a space's class cursors from [i] on quarantined [aa];
   top-level, so the per-AA refile builds no closure. *)
let rec quarantined cursors aa i =
  i < Array.length cursors
  && (Hashtbl.mem cursors.(i).quarantined aa || quarantined cursors aa (i + 1))

(* CP boundary for one space: make sure every taken AA is re-filed in the
   cache, even if its score did not change, apply the score delta once,
   then release every taken AA's claim (across all of the space's class
   cursors — their taken lists are disjoint, the shared claim flags block
   a second class from taking a claimed AA).  The cache is handed the
   taken-but-unchanged AAs first, in taken order, then the delta's
   updates ({!Score.apply}'s order); [Score.mem] answers "will apply
   emit this AA?" from the delta's preallocated accumulator, and both
   streams go straight to the cache, so nothing is collected per AA.
   [wear_adjust], when given, maps [(aa, score)] to the cache-filed score
   — the free-count [scores] array itself is never touched by wear. *)
let cp_finish_space ?(keep_claimed_rings = false) ?wear_adjust (s : Space.t) cursors =
  (* A space still stale after a mount (lazy, or TopAA without a
     background rebuild) was never picked from this CP, but its frees were
     noted against scores that are not yet exact: drop them — its first
     touch rescores from the bitmap, which already holds them. *)
  if s.Space.stale then Score.clear s.Space.delta;
  let delta = s.Space.delta and scores = s.Space.scores in
  (match s.Space.cache with
  | None -> Score.apply delta scores ~f:(fun _ _ -> ())
  | Some cache ->
    (* quarantined AAs sit on bad device ranges: never re-file them, or
       the cache would hand them right back.  An empty quarantine (the
       fault-free common case) skips the per-AA lookups. *)
    let none_quarantined = Array.for_all (fun c -> Hashtbl.length c.quarantined = 0) cursors in
    Cache.cp_update cache (fun file ->
        let file aa score =
          if none_quarantined || not (quarantined cursors aa 0) then
            file aa (match wear_adjust with None -> score | Some f -> (f aa score : int))
        in
        Array.iter
          (fun cursor ->
            for k = 0 to cursor.n_taken - 1 do
              let aa = cursor.taken_list.(k) in
              if not (Score.mem delta ~aa) then file aa scores.(aa)
            done)
          cursors;
        Score.apply delta scores ~f:file));
  Array.iter
    (fun cursor ->
      (* With several class rows over shared claim flags, a surviving ring
         is only safe if its AA stays claimed across the boundary: the ring
         blocks are still free in the bitmap, and an unclaimed AA could be
         picked and re-harvested by another class next CP.  Keep the claim
         (and re-enter the AA in the taken list, so a later cp_finish both
         re-files and eventually releases it); everything else releases as
         usual.  The single-row spaces pass [keep_claimed_rings = false]
         and keep the pre-routing behavior: ring kept, claim released. *)
      let keep_aa =
        if keep_claimed_rings && cursor.head < cursor.len then cursor.ring_aa else -1
      in
      let kept = ref false in
      for k = 0 to cursor.n_taken - 1 do
        let aa = cursor.taken_list.(k) in
        if aa = keep_aa then kept := true
        else Bytes.set s.Space.claimed aa '\000'
      done;
      cursor.n_taken <- 0;
      if !kept then push_taken cursor keep_aa
      else if keep_aa >= 0 then begin
        (* live ring whose AA we no longer own: unsafe to consume *)
        cursor.head <- 0;
        cursor.len <- 0
      end)
    cursors

(* Worst per-erase-block wear under an AA's range-local extents — the
   per-AA wear the scorer bins.  An AA far smaller than an erase block
   inherits its block's wear; an erase-block-aligned AA is exactly one
   block's count. *)
let aa_max_wear (range : Aggregate.range) ftl aa =
  List.fold_left
    (fun acc e ->
      max acc
        (Wafl_device.Ftl.max_wear_in ftl ~start:(Wafl_block.Extent.start e)
           ~len:(Wafl_block.Extent.len e)))
    0
    (Topology.extents_of_aa range.Aggregate.topology aa)

let cp_finish t =
  t.epoch <- t.epoch + 1;
  let bias = (Aggregate.config t.aggregate).Config.run.Config.streams.Config.wear_bias in
  Array.iteri
    (fun i (range : Aggregate.range) ->
      let wear_adjust =
        if bias <= 0 then None
        else
          match range.Aggregate.device with
          | Aggregate.Ssd_sim ftl ->
            let min_wear, _ = Wafl_device.Ftl.wear_spread ftl in
            Some
              (fun aa score ->
                Score.wear_adjusted ~bias ~wear:(aa_max_wear range ftl aa) ~min_wear
                  ~score)
          | _ -> None
      in
      cp_finish_space ~keep_claimed_rings:(t.classes > 1) ?wear_adjust range.Aggregate.space
        (Array.map (fun row -> row.(i)) t.cursors))
    (Aggregate.ranges t.aggregate);
  (* last volume first: the trace records the volumes' cache events in
     this order *)
  for v = Array.length t.vol_cursors - 1 downto 0 do
    cp_finish_space t.vol_spaces.(v) [| t.vol_cursors.(v) |]
  done

let candidates_scanned t = t.candidates_scanned
let words_scanned t = !(t.words)
let vbns_harvested t = t.harvested

let aas_taken t = t.phys_taken + t.virt_taken
let score_sum_taken t = t.phys_score_sum + t.virt_score_sum
let phys_take_trace t = (t.phys_taken, t.phys_score_sum)
let virt_take_trace t = (t.virt_taken, t.virt_score_sum)

let reset_take_stats t =
  t.phys_taken <- 0;
  t.phys_score_sum <- 0;
  t.virt_taken <- 0;
  t.virt_score_sum <- 0;
  t.candidates_scanned <- 0;
  t.words := 0;
  t.harvested <- 0
