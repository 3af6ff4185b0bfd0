type t = {
  aas : int array;     (* heap array of AA ids *)
  scores : int array;  (* heap array of scores, parallel to aas *)
  pos : int array;     (* AA id -> index in heap array, -1 when absent *)
  mutable size : int;
}

let create ~n_aas =
  assert (n_aas > 0);
  { aas = Array.make n_aas 0; scores = Array.make n_aas 0; pos = Array.make n_aas (-1); size = 0 }

let size t = t.size
let capacity t = Array.length t.aas
let mem t aa = t.pos.(aa) >= 0

let swap t i j =
  let ai = t.aas.(i) and aj = t.aas.(j) in
  t.aas.(i) <- aj;
  t.aas.(j) <- ai;
  let si = t.scores.(i) in
  t.scores.(i) <- t.scores.(j);
  t.scores.(j) <- si;
  t.pos.(ai) <- j;
  t.pos.(aj) <- i

(* Ties broken toward the lower AA id, so equal-score regions are consumed
   in number-space order (keeps sequential fills sequential on media). *)
let better t i j =
  t.scores.(i) > t.scores.(j) || (t.scores.(i) = t.scores.(j) && t.aas.(i) < t.aas.(j))

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let largest = ref i in
  if left < t.size && better t left !largest then largest := left;
  if right < t.size && better t right !largest then largest := right;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

let insert t ~aa ~score =
  if mem t aa then invalid_arg "Max_heap.insert: AA already present";
  if t.size >= capacity t then invalid_arg "Max_heap.insert: full";
  let i = t.size in
  t.aas.(i) <- aa;
  t.scores.(i) <- score;
  t.pos.(aa) <- i;
  t.size <- t.size + 1;
  sift_up t i

let of_scores scores =
  let n = Array.length scores in
  let t = create ~n_aas:n in
  Array.blit (Array.init n Fun.id) 0 t.aas 0 n;
  Array.blit scores 0 t.scores 0 n;
  for aa = 0 to n - 1 do
    t.pos.(aa) <- aa
  done;
  t.size <- n;
  (* Floyd heapify. *)
  for i = (n / 2) - 1 downto 0 do
    sift_down t i
  done;
  t

let peek_best t = if t.size = 0 then None else Some (t.aas.(0), t.scores.(0))

let best_score t = Option.map snd (peek_best t)
let top_score t = if t.size = 0 then 0 else t.scores.(0)

let remove_at t i =
  let aa = t.aas.(i) in
  let score = t.scores.(i) in
  let last = t.size - 1 in
  if i <> last then swap t i last;
  t.pos.(aa) <- -1;
  t.size <- last;
  if i < t.size then begin
    (* The element swapped into position i may violate order either way. *)
    sift_down t i;
    sift_up t i
  end;
  score

let extract_best t =
  match peek_best t with
  | None -> None
  | Some (aa, score) ->
    ignore (remove_at t 0);
    Some (aa, score)

(* Claim-aware take: extract the best entry satisfying [keep], restoring
   every rejected entry afterwards.  Rejections are rare (an AA is
   rejected only while another class row has claimed it), extraction
   order is deterministic (score, then lower AA id), and reinserting the
   rejected entries reproduces the exact original heap contents — so
   every class row sees the same score order an unfiltered take would. *)
let extract_best_filtered t ~keep =
  let rec go rejected =
    match extract_best t with
    | None -> (None, rejected)
    | Some (aa, score) as best ->
      if keep aa then (best, rejected) else go ((aa, score) :: rejected)
  in
  let best, rejected = go [] in
  List.iter (fun (aa, score) -> insert t ~aa ~score) rejected;
  best

let remove t ~aa =
  let i = t.pos.(aa) in
  if i < 0 then invalid_arg "Max_heap.remove: AA not present";
  remove_at t i

let score t ~aa =
  let i = t.pos.(aa) in
  if i < 0 then invalid_arg "Max_heap.score: AA not present";
  t.scores.(i)

let update t ~aa ~score =
  let i = t.pos.(aa) in
  if i < 0 then invalid_arg "Max_heap.update: AA not present";
  let old = t.scores.(i) in
  t.scores.(i) <- score;
  if score > old then sift_up t i else if score < old then sift_down t i

let apply_update t ~aa ~score = if mem t aa then update t ~aa ~score else insert t ~aa ~score

let top_k t k =
  (* Pull k best from a scratch copy; k is small (512 for TopAA). *)
  let scratch =
    {
      aas = Array.copy t.aas;
      scores = Array.copy t.scores;
      pos = Array.copy t.pos;
      size = t.size;
    }
  in
  let rec go acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      match extract_best scratch with
      | None -> List.rev acc
      | Some entry -> go (entry :: acc) (remaining - 1)
    end
  in
  go [] k

let check_invariant t =
  let order_ok = ref true in
  for i = 1 to t.size - 1 do
    if better t i ((i - 1) / 2) then order_ok := false
  done;
  let pos_ok = ref true in
  for i = 0 to t.size - 1 do
    if t.pos.(t.aas.(i)) <> i then pos_ok := false
  done;
  let absent_ok = ref true in
  Array.iteri
    (fun aa p ->
      if p >= 0 then begin
        if p >= t.size || t.aas.(p) <> aa then absent_ok := false
      end)
    t.pos;
  !order_ok && !pos_ok && !absent_ok
