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

(* [scratch] stages one flush's VBNs for the accounting kernel.  It grows
   to the largest flush seen and is never shrunk; nothing in [t] is sized
   by the geometry, so a mount's fresh groups cost no per-stripe memory. *)
type t = { geometry : Geometry.t; mutable totals : totals; mutable scratch : int array }

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

let create geometry = { geometry; totals = empty_totals geometry; scratch = [||] }

let geometry t = t.geometry

type flush_report = {
  classification : Stripe.classification;
  tetris : Tetris.summary;
  chains : int;
  chain_blocks : int;
}

(* The flush accounting kernel: two sorts of the reused scratch array and
   two linear passes, with no per-block allocation.

   Pass 1 sorts and dedups the VBNs.  VBNs are device-major, so one walk
   yields the per-device counts and the write chains: a chain breaks where
   the next VBN is not [prev + 1] or lies on another device (the last DBN
   of one device and DBN 0 of the next are adjacent VBNs but two I/Os).
   The same walk re-keys each VBN to [stripe * data_devices + device].

   Pass 2 sorts the keys, which groups them by stripe: one walk counts the
   blocks per stripe (full or partial, hence parity writes and
   read-modify-write reads) and the distinct [stripe / 64] values, which
   are the tetrises written. *)
let record_flush t ~vbns ~pos ~len =
  let geom = t.geometry in
  let data = Geometry.data_devices geom in
  let parity = Geometry.parity_devices geom in
  let device_blocks = Geometry.device_blocks geom in
  if Array.length t.scratch < len then
    t.scratch <- Array.make (max len (2 * Array.length t.scratch)) 0;
  let a = t.scratch in
  let total = Geometry.total_blocks geom in
  for i = 0 to len - 1 do
    let vbn = vbns.(pos + i) in
    if vbn < 0 || vbn >= total then invalid_arg "Geometry: VBN out of bounds";
    a.(i) <- vbn
  done;
  (* pass 1: devices and chains *)
  let n = Wafl_util.Int_sort.sort_uniq a ~len in
  let per_device = Array.make data 0 in
  let chains = ref 0 in
  let prev = ref (-2) and prev_device = ref (-1) in
  for i = 0 to n - 1 do
    let vbn = a.(i) in
    let device = vbn / device_blocks in
    per_device.(device) <- per_device.(device) + 1;
    if vbn <> !prev + 1 || device <> !prev_device then incr chains;
    prev := vbn;
    prev_device := device;
    a.(i) <- ((vbn - (device * device_blocks)) * data) + device
  done;
  (* pass 2: stripes and tetrises *)
  Wafl_util.Int_sort.sort a ~len:n;
  let full = ref 0 and partial = ref 0 and in_partial = ref 0 in
  let tetrises = ref 0 and prev_tetris = ref (-1) in
  let i = ref 0 in
  while !i < n do
    let stripe = a.(!i) / data in
    let j = ref (!i + 1) in
    while !j < n && a.(!j) / data = stripe do
      incr j
    done;
    let count = !j - !i in
    if count = data then incr full
    else begin
      incr partial;
      in_partial := !in_partial + count
    end;
    let tetris = stripe / Tetris.stripes_per_tetris in
    if tetris <> !prev_tetris then begin
      incr tetrises;
      prev_tetris := tetris
    end;
    i := !j
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
