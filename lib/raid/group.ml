type totals = {
  flushes : int;
  blocks_written : int;
  tetrises_written : int;
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;
  extra_parity_reads : int;
  per_device_blocks : int array;
  chain_count : int;
  chain_blocks : int;
}

(* [scratch] stages one flush's VBNs, then their DBNs, for the accounting
   kernel.  It grows to the largest flush seen and is never shrunk;
   [cursor] and [stop] are the stripe pass's per-device merge cursors.
   Nothing in [t] is sized by the stripe count, so a mount's fresh groups
   cost no per-stripe memory. *)
type t = {
  geometry : Geometry.t;
  mutable totals : totals;
  mutable scratch : int array;
  cursor : int array;
  stop : int array;
}

let empty_totals geom =
  {
    flushes = 0;
    blocks_written = 0;
    tetrises_written = 0;
    full_stripes = 0;
    partial_stripes = 0;
    parity_writes = 0;
    extra_parity_reads = 0;
    per_device_blocks = Array.make (Geometry.data_devices geom) 0;
    chain_count = 0;
    chain_blocks = 0;
  }

let create geometry =
  let data = Geometry.data_devices geometry in
  {
    geometry;
    totals = empty_totals geometry;
    scratch = [||];
    cursor = Array.make data 0;
    stop = Array.make data 0;
  }

let geometry t = t.geometry

type flush_report = {
  classification : Stripe.classification;
  tetris : Tetris.summary;
  chains : int;
  chain_blocks : int;
}

(* The flush accounting kernel: one [sort_uniq] of the reused scratch
   array, which is a linear check when the VBNs arrive sorted and
   duplicate-free (as the CP hands them over), then a walk and a merge,
   with no per-block allocation.

   Pass 1 walks the distinct VBNs.  VBNs are device-major, so one walk
   yields the per-device counts and the write chains: a chain breaks where
   the next VBN is not [prev + 1] or lies on another device (the last DBN
   of one device and DBN 0 of the next are adjacent VBNs but two I/Os).
   The same walk replaces each VBN by its DBN, which is its stripe, and
   marks where each device's run starts and stops.

   Pass 2 merges the per-device runs, each ascending by stripe: every step
   takes the lowest stripe under the cursors and advances each cursor that
   is on it, so it visits the stripes in order and counts the blocks of
   each (full or partial, hence parity writes and read-modify-write
   reads) and the distinct [stripe / 64] values, which are the tetrises
   written.  A step looks at every device's cursor once, so the pass
   costs [data] compares per stripe written. *)
let record_flush t ~vbns ~pos ~len =
  let geom = t.geometry in
  let data = Geometry.data_devices geom in
  let parity = Geometry.parity_devices geom in
  let device_blocks = Geometry.device_blocks geom in
  if Array.length t.scratch < len then
    t.scratch <- Array.make (max len (2 * Array.length t.scratch)) 0;
  let a = t.scratch and cursor = t.cursor and stop = t.stop in
  let total = Geometry.total_blocks geom in
  for i = 0 to len - 1 do
    let vbn = vbns.(pos + i) in
    if vbn < 0 || vbn >= total then invalid_arg "Geometry: VBN out of bounds";
    a.(i) <- vbn
  done;
  (* pass 1: devices and chains *)
  let n = Wafl_util.Int_sort.sort_uniq a ~len in
  Array.fill cursor 0 data 0;
  Array.fill stop 0 data 0;
  let per_device = Array.make data 0 in
  let chains = ref 0 in
  let prev = ref (-2) and prev_device = ref (-1) in
  for i = 0 to n - 1 do
    let vbn = a.(i) in
    let device = vbn / device_blocks in
    per_device.(device) <- per_device.(device) + 1;
    if device <> !prev_device then cursor.(device) <- i;
    stop.(device) <- i + 1;
    if vbn <> !prev + 1 || device <> !prev_device then incr chains;
    prev := vbn;
    prev_device := device;
    a.(i) <- vbn - (device * device_blocks)
  done;
  (* pass 2: stripes and tetrises *)
  let full = ref 0 and partial = ref 0 and in_partial = ref 0 in
  let tetrises = ref 0 and prev_tetris = ref (-1) in
  let remaining = ref n in
  while !remaining > 0 do
    let stripe = ref max_int in
    for d = 0 to data - 1 do
      if cursor.(d) < stop.(d) && a.(cursor.(d)) < !stripe then stripe := a.(cursor.(d))
    done;
    let stripe = !stripe in
    let count = ref 0 in
    for d = 0 to data - 1 do
      if cursor.(d) < stop.(d) && a.(cursor.(d)) = stripe then begin
        cursor.(d) <- cursor.(d) + 1;
        incr count
      end
    done;
    let count = !count in
    remaining := !remaining - count;
    if count = data then incr full
    else begin
      incr partial;
      in_partial := !in_partial + count
    end;
    let tetris = stripe / Tetris.stripes_per_tetris in
    if tetris <> !prev_tetris then begin
      incr tetrises;
      prev_tetris := tetris
    end
  done;
  let stripes = !full + !partial in
  let classification =
    {
      Stripe.full_stripes = !full;
      partial_stripes = !partial;
      blocks_in_full = n - !in_partial;
      blocks_in_partial = !in_partial;
      parity_writes = stripes * parity;
      extra_reads = !in_partial + (!partial * parity);
    }
  in
  let tetris =
    {
      Tetris.tetrises = !tetrises;
      blocks = n;
      mean_blocks_per_tetris =
        (if !tetrises = 0 then 0.0 else float_of_int n /. float_of_int !tetrises);
      per_device_blocks = per_device;
    }
  in
  let tot = t.totals in
  for d = 0 to data - 1 do
    tot.per_device_blocks.(d) <- tot.per_device_blocks.(d) + per_device.(d)
  done;
  t.totals <-
    {
      tot with
      flushes = tot.flushes + 1;
      blocks_written = tot.blocks_written + n;
      tetrises_written = tot.tetrises_written + !tetrises;
      full_stripes = tot.full_stripes + !full;
      partial_stripes = tot.partial_stripes + !partial;
      parity_writes = tot.parity_writes + classification.Stripe.parity_writes;
      extra_parity_reads = tot.extra_parity_reads + classification.Stripe.extra_reads;
      chain_count = tot.chain_count + !chains;
      chain_blocks = tot.chain_blocks + n;
    };
  { classification; tetris; chains = !chains; chain_blocks = n }

let totals t = t.totals

let mean_chain_len totals =
  if totals.chain_count = 0 then 0.0
  else float_of_int totals.chain_blocks /. float_of_int totals.chain_count

let stripe_fullness totals =
  let stripes = totals.full_stripes + totals.partial_stripes in
  if stripes = 0 then 0.0 else float_of_int totals.full_stripes /. float_of_int stripes

let reset t = t.totals <- empty_totals t.geometry
