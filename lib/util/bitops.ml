let[@inline] popcount64 x =
  (* SWAR popcount. *)
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let ctz64 x =
  if x = 0L then 64
  else begin
    let n = ref 0 in
    let x = ref x in
    if Int64.logand !x 0xFFFFFFFFL = 0L then (n := !n + 32; x := Int64.shift_right_logical !x 32);
    if Int64.logand !x 0xFFFFL = 0L then (n := !n + 16; x := Int64.shift_right_logical !x 16);
    if Int64.logand !x 0xFFL = 0L then (n := !n + 8; x := Int64.shift_right_logical !x 8);
    if Int64.logand !x 0xFL = 0L then (n := !n + 4; x := Int64.shift_right_logical !x 4);
    if Int64.logand !x 0x3L = 0L then (n := !n + 2; x := Int64.shift_right_logical !x 2);
    if Int64.logand !x 0x1L = 0L then incr n;
    !n
  end

let clz64 x =
  if x = 0L then 64
  else begin
    let n = ref 0 in
    let x = ref x in
    if Int64.shift_right_logical !x 32 = 0L then (n := !n + 32; x := Int64.shift_left !x 32);
    if Int64.shift_right_logical !x 48 = 0L then (n := !n + 16; x := Int64.shift_left !x 16);
    if Int64.shift_right_logical !x 56 = 0L then (n := !n + 8; x := Int64.shift_left !x 8);
    if Int64.shift_right_logical !x 60 = 0L then (n := !n + 4; x := Int64.shift_left !x 4);
    if Int64.shift_right_logical !x 62 = 0L then (n := !n + 2; x := Int64.shift_left !x 2);
    if Int64.shift_right_logical !x 63 = 0L then incr n;
    !n
  end

(* Native-int variants for the allocation hot path.  [int64] values are
   boxed in OCaml, so the word kernels that must not allocate work on the
   immediate [int] type instead (bits 0..61 are plenty: the harvest path
   scans 32-bit chunks). *)

let ctz x =
  if x = 0 then Sys.int_size
  else begin
    let n = ref 0 in
    let x = ref x in
    if !x land 0xFFFFFFFF = 0 then (n := !n + 32; x := !x lsr 32);
    if !x land 0xFFFF = 0 then (n := !n + 16; x := !x lsr 16);
    if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
    if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
    if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
    if !x land 0x1 = 0 then incr n;
    !n
  end

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ceil_div n m =
  assert (m > 0);
  (n + m - 1) / m

let round_up n m = ceil_div n m * m
let round_down n m = n / m * m
