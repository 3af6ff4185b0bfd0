let[@inline] swap (a : int array) i j =
  let x = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j x

(* Quicksort (median-of-three, insertion below 16) over [a.(lo .. hi)].
   Bounds are checked once in [sort]; no closure, no boxed value, so the
   sort allocates nothing whatever the range length.  The [int array]
   annotation matters: left polymorphic, every [<] would be a call to the
   generic compare. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > v do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done
  else begin
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a mid lo;
    if Array.unsafe_get a hi < Array.unsafe_get a lo then swap a hi lo;
    if Array.unsafe_get a hi < Array.unsafe_get a mid then swap a hi mid;
    let pivot = Array.unsafe_get a mid in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Array.unsafe_get a !i < pivot do
        incr i
      done;
      while Array.unsafe_get a !j > pivot do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    sort_range a lo !j;
    sort_range a !i hi
  end

let sort a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Int_sort.sort: length out of bounds";
  sort_range a 0 (len - 1)

let sort_uniq (a : int array) ~len =
  sort a ~len;
  let m = ref 0 in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get a i in
    if i = 0 || v <> Array.unsafe_get a (!m - 1) then begin
      Array.unsafe_set a !m v;
      incr m
    end
  done;
  !m
