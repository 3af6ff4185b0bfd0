open Wafl_util

type t = { bits : int; data : Pagestore.t }

let create ~bits () =
  assert (bits >= 0);
  (* Round the backing store up to whole 8-byte words so the word-at-a-time
     loops never straddle the end; the tail bits stay clear forever because
     every mutator is bounds-checked against [bits]. *)
  let words = Bitops.ceil_div (max bits 1) 64 in
  { bits; data = Pagestore.create ~mapped:true words }

let length t = t.bits

let store t = t.data

let check t i = if i < 0 || i >= t.bits then invalid_arg "Bitmap: index out of bounds"

let[@inline] get t i =
  check t i;
  Pagestore.byte t.data (i lsr 3) land (1 lsl (i land 7)) <> 0

let[@inline] set t i =
  check t i;
  let byte = i lsr 3 in
  Pagestore.set_byte t.data byte (Pagestore.byte t.data byte lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let byte = i lsr 3 in
  Pagestore.set_byte t.data byte
    (Pagestore.byte t.data byte land lnot (1 lsl (i land 7)) land 0xff)

let check_range t ~start ~len =
  if start < 0 || len < 0 || start + len > t.bits then
    invalid_arg "Bitmap: range out of bounds"

(* OR (value) or AND-NOT (not value) an 8-bit mask into one backing byte. *)
let apply_byte_mask t byte mask ~value =
  let cur = Pagestore.byte t.data byte in
  let v = if value then cur lor mask else cur land lnot mask land 0xff in
  Pagestore.set_byte t.data byte v

let fill_range t ~start ~len ~value =
  check_range t ~start ~len;
  if len > 0 then begin
    (* Ragged head and tail as masked byte updates; whole bytes in bulk. *)
    let finish = start + len in
    let b0 = start lsr 3 and b1 = (finish - 1) lsr 3 in
    let head_mask = 0xff lsl (start land 7) land 0xff in
    let tail_mask = 0xff lsr (7 - ((finish - 1) land 7)) in
    if b0 = b1 then apply_byte_mask t b0 (head_mask land tail_mask) ~value
    else begin
      apply_byte_mask t b0 head_mask ~value;
      if b1 > b0 + 1 then
        Pagestore.fill t.data ~pos:(b0 + 1) ~len:(b1 - b0 - 1) (if value then 0xff else 0);
      apply_byte_mask t b1 tail_mask ~value
    end
  end

let set_range t ~start ~len = fill_range t ~start ~len ~value:true
let clear_range t ~start ~len = fill_range t ~start ~len ~value:false

let[@inline] word t w = Pagestore.word t.data w

(* All-ones below bit [i+1]: mask selecting word bits [0, i]. *)
let[@inline] low_mask64 i = Int64.shift_right_logical (-1L) (63 - i)

let count_set_in t ~start ~len =
  check_range t ~start ~len;
  if len = 0 then 0
  else begin
    let finish = start + len in
    let w0 = start / 64 and w1 = (finish - 1) / 64 in
    (* Ragged edges as masked popcounts — no per-bit loop, no re-checks. *)
    let head_mask = Int64.shift_left (-1L) (start land 63) in
    let tail_mask = low_mask64 ((finish - 1) land 63) in
    if w0 = w1 then Bitops.popcount64 (Int64.logand (word t w0) (Int64.logand head_mask tail_mask))
    else begin
      let count = ref (Bitops.popcount64 (Int64.logand (word t w0) head_mask)) in
      for w = w0 + 1 to w1 - 1 do
        count := !count + Bitops.popcount64 (word t w)
      done;
      !count + Bitops.popcount64 (Int64.logand (word t w1) tail_mask)
    end
  end

let count_set t = count_set_in t ~start:0 ~len:t.bits
let count_clear_in t ~start ~len = len - count_set_in t ~start ~len

(* Scan for the first bit at index >= from whose value matches [target].
   One ctz per candidate word: matching bits of a word are exposed by
   XORing with the all-ones pattern for a clear-scan (so a match is always
   a set bit), and the ragged head is a mask, not a per-bit loop. *)
let find_first t ~from ~target =
  if from < 0 then invalid_arg "Bitmap: negative index";
  if from >= t.bits then None
  else begin
    let xor_mask = if target then 0L else -1L in
    let nwords = Pagestore.words t.data in
    let rec scan w cand =
      if cand <> 0L then begin
        (* Tail bits past [bits] are stored clear, so an inverted scan can
           surface them in the final word; they are out of bounds. *)
        let i = (w * 64) + Bitops.ctz64 cand in
        if i < t.bits then Some i else None
      end
      else if w + 1 >= nwords then None
      else scan (w + 1) (Int64.logxor (word t (w + 1)) xor_mask)
    in
    let w0 = from / 64 in
    let head =
      Int64.logand
        (Int64.logxor (word t w0) xor_mask)
        (Int64.shift_left (-1L) (from land 63))
    in
    scan w0 head
  end

let find_first_clear t ~from = find_first t ~from ~target:false
let find_first_set t ~from = find_first t ~from ~target:true

let fold_free_runs t ~start ~len ~init ~f =
  check_range t ~start ~len;
  let finish = start + len in
  let rec go acc i =
    if i >= finish then acc
    else begin
      match find_first_clear t ~from:i with
      | None -> acc
      | Some run_start when run_start >= finish -> acc
      | Some run_start ->
        let run_end =
          match find_first_set t ~from:run_start with
          | Some e -> min e finish
          | None -> finish
        in
        let acc = f acc ~run_start ~run_len:(run_end - run_start) in
        go acc run_end
    end
  in
  go init start

let free_extents t ~start ~len =
  let runs =
    fold_free_runs t ~start ~len ~init:[] ~f:(fun acc ~run_start ~run_len ->
        Wafl_block.Extent.make ~start:run_start ~len:run_len :: acc)
  in
  List.rev runs

let free_run_stats t ~start ~len =
  fold_free_runs t ~start ~len ~init:(0, 0) ~f:(fun (runs, largest) ~run_start:_ ~run_len ->
      (runs + 1, if run_len > largest then run_len else largest))

(* --- word-at-a-time free-block harvest kernels (the §3.3 hot path) --- *)

let iter_clear_words t ~start ~len ~f =
  check_range t ~start ~len;
  if len > 0 then begin
    let finish = start + len in
    let w0 = start / 64 and w1 = (finish - 1) / 64 in
    for w = w0 to w1 do
      let m = Int64.lognot (word t w) in
      let m = if w = w0 then Int64.logand m (Int64.shift_left (-1L) (start land 63)) else m in
      let m = if w = w1 then Int64.logand m (low_mask64 ((finish - 1) land 63)) else m in
      if m <> 0L then f ~base:(w * 64) ~mask:m
    done
  end

let fold_clear_in t ~start ~len ~init ~f =
  let acc = ref init in
  iter_clear_words t ~start ~len ~f:(fun ~base ~mask ->
      let m = ref mask in
      while !m <> 0L do
        acc := f !acc (base + Bitops.ctz64 !m);
        m := Int64.logand !m (Int64.sub !m 1L)
      done);
  !acc

(* The zero-allocation variants below avoid [int64] entirely (int64 values
   are boxed): the scan works in 32-bit chunks assembled byte-by-byte into
   immediate native ints, at any bit offset, so a RAID-aware harvest can
   read a chunk of each device's extent without alignment gymnastics. *)

let clear_mask32 t pos =
  if pos < 0 || pos >= t.bits then invalid_arg "Bitmap: index out of bounds";
  let data = t.data in
  let n = Pagestore.length_bytes data in
  let byte = pos lsr 3 in
  let b0 = Pagestore.byte data byte in
  let b1 = if byte + 1 < n then Pagestore.byte data (byte + 1) else 0 in
  let b2 = if byte + 2 < n then Pagestore.byte data (byte + 2) else 0 in
  let b3 = if byte + 3 < n then Pagestore.byte data (byte + 3) else 0 in
  let b4 = if byte + 4 < n then Pagestore.byte data (byte + 4) else 0 in
  let raw = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) lor (b4 lsl 32) in
  let free = lnot (raw lsr (pos land 7)) land 0xFFFFFFFF in
  let remaining = t.bits - pos in
  if remaining >= 32 then free else free land ((1 lsl remaining) - 1)

let harvest_clear_into t ~start ~len ~offset ~dst ~pos =
  check_range t ~start ~len;
  let finish = start + len in
  let rec emit base m pos =
    if m = 0 then pos
    else begin
      dst.(pos) <- base + Bitops.ctz m;
      emit base (m land (m - 1)) (pos + 1)
    end
  in
  let rec chunks i pos =
    if i >= finish then pos
    else begin
      let m = clear_mask32 t i in
      let chunk = finish - i in
      let m = if chunk < 32 then m land ((1 lsl chunk) - 1) else m in
      chunks (i + 32) (emit (offset + i) m pos)
    end
  in
  chunks start pos

let copy t = { bits = t.bits; data = Pagestore.copy t.data }

let equal a b = a.bits = b.bits && Pagestore.equal a.data b.data

let blit ~src ~dst =
  if src.bits <> dst.bits then invalid_arg "Bitmap.blit: length mismatch";
  Pagestore.blit ~src:src.data ~dst:dst.data
