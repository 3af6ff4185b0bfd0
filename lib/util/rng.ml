(* The xoshiro state s0..s3 as four little-endian 64-bit words of one
   32-byte buffer.  Stores into [mutable int64] record fields would box
   every word on every draw; the bytes primitives read and write raw
   words, so a draw allocates nothing. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i v = Bytes.set_int64_le t (8 * i) v

(* splitmix64 step, used only for seeding so that near-identical seeds still
   produce unrelated xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create ~seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into each caller, so the int64
   temporaries stay unboxed. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 1 (logxor s1 s2);
  set t 0 (logxor s0 s3);
  set t 2 (logxor s2 tt);
  set t 3 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_seed64 (next t)

(* Rejection sampling over the top 62 bits to avoid modulo bias; a
   top-level loop, so a draw builds no closure. *)
let mask62 = 0x3FFF_FFFF_FFFF_FFFF

let rec draw t bound =
  let r = Int64.to_int (next t) land mask62 in
  let v = r mod bound in
  if r - v > mask62 - bound + 1 then draw t bound else v

let int t bound =
  assert (bound > 0);
  draw t bound

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits -> [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-18 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
