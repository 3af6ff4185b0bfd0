(* Log-linear histogram: exact unit-width buckets for values < 64, then 32
   linear sub-buckets per power-of-two decade.  Layout (sub_bits = 5):

     v < 32           -> index v                      (width 1)
     v >= 32          -> msb = floor(log2 v)
                         index = (msb - 4) * 32 + ((v >> (msb - 5)) & 31)

   The v in [32,64) decade also gets width-1 buckets under this formula, so
   everything below 64 is exact.  The max index for v = max_int (msb 61) is
   (61-5+1)*32 + 31 = 1855; n_buckets = 1856 covers every OCaml int. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let n_buckets = (63 - sub_bits) * sub_count

type t = {
  counts : int array; (* n_buckets *)
  mutable total : int;
  mutable sum : int;
  mutable max_v : int;
  mutable min_v : int; (* max_int when empty *)
}

let create () =
  {
    counts = Array.make n_buckets 0;
    total = 0;
    sum = 0;
    max_v = 0;
    min_v = max_int;
  }

(* Tail-recursive msb search; steps a byte at a time first so ns-scale
   values (< 2^40) take ~5+5 iterations.  No heap allocation. *)
let rec msb_fine acc v = if v >= 2 then msb_fine (acc + 1) (v lsr 1) else acc
let rec msb_coarse acc v =
  if v >= 256 then msb_coarse (acc + 8) (v lsr 8) else msb_fine acc v

let index_of v =
  if v <= 0 then 0
  else if v < sub_count then v
  else
    let msb = msb_coarse 0 v in
    ((msb - sub_bits + 1) lsl sub_bits)
    + ((v lsr (msb - sub_bits)) land (sub_count - 1))

let bucket_bounds i =
  if i < 2 * sub_count then (i, i)
  else
    let dec = (i lsr sub_bits) - 1 and sub = i land (sub_count - 1) in
    let lo = (sub_count + sub) lsl dec in
    (lo, lo + (1 lsl dec) - 1)

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v;
  if v < t.min_v then t.min_v <- v
let count t = t.total
let sum t = t.sum
let max_value t = t.max_v
let min_value t = if t.total = 0 then 0 else t.min_v

let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let acc = ref 0 and res = ref t.max_v and found = ref false in
    let i = ref 0 in
    while (not !found) && !i < n_buckets do
      let c = t.counts.(!i) in
      if c > 0 then begin
        acc := !acc + c;
        if !acc >= rank then begin
          let _, hi = bucket_bounds !i in
          res := if hi > t.max_v then t.max_v else hi;
          found := true
        end
      end;
      incr i
    done;
    !res
  end

let iter_nonempty t f =
  for i = 0 to n_buckets - 1 do
    let c = t.counts.(i) in
    if c > 0 then begin
      let lo, hi = bucket_bounds i in
      f ~lo ~hi ~count:c
    end
  done
