
type stats = {
  host_pages_written : int;
  device_pages_written : int;
  relocated_pages : int;
  erases : int;
  trimmed_pages : int;
}

(* Per-stream mutable tally; [stats] sums them. *)
type tally = {
  mutable t_host : int;
  mutable t_device : int;
  mutable t_reloc : int;
  mutable t_erases : int;
}

(* Every per-erase-block fact is one slot of a flat array indexed by the
   erase block; each stream's open blocks are one row of [open_order]. *)
type t = {
  profile : Profile.ssd;
  streams : int;
  stream_capacity : int;            (* open-erase-block budget per stream *)
  logical_blocks : int;
  live : Bytes.t;                   (* 1 byte per logical page *)
  valid : int array;                (* live pages per erase block *)
  appended : int array;             (* pages appended since open, 0 when closed *)
  eb_stream : int array;            (* stream that opened the block, -1 when closed *)
  open_order : int array;           (* stream s's LRU in slots s * stream_capacity .. *)
  n_open : int array;               (* ... its first n_open.(s) slots, most recent first *)
  wear : int array;                 (* cumulative erases per erase block *)
  per_stream : tally array;
  mutable scratch : int array;      (* write_batch staging (sort + dedup) *)
  mutable torn_scratch : int array; (* fault-plane torn pages of one batch *)
  mutable trimmed_pages : int;
  mutable fault : Wafl_fault.Fault.device option;
}

let create ?(profile = Profile.default_ssd) ?(open_blocks = 8) ?(streams = 1)
    ~logical_blocks () =
  assert (
    logical_blocks > 0 && profile.Profile.erase_block_blocks > 0 && open_blocks > 0
    && streams > 0);
  let ebs = profile.Profile.erase_block_blocks in
  let n_ebs = (logical_blocks + ebs - 1) / ebs in
  (* The drive's open-block budget is split evenly over the write
     streams (each stream gets at least one): real multi-stream drives
     partition a fixed set of simultaneously programmable blocks. *)
  let stream_capacity = max 1 (open_blocks / streams) in
  {
    profile;
    streams;
    stream_capacity;
    logical_blocks;
    live = Bytes.make logical_blocks '\000';
    valid = Array.make n_ebs 0;
    appended = Array.make n_ebs 0;
    eb_stream = Array.make n_ebs (-1);
    open_order = Array.make (streams * stream_capacity) 0;
    n_open = Array.make streams 0;
    wear = Array.make n_ebs 0;
    per_stream =
      Array.init streams (fun _ -> { t_host = 0; t_device = 0; t_reloc = 0; t_erases = 0 });
    scratch = [||];
    torn_scratch = [||];
    trimmed_pages = 0;
    fault = None;
  }

let streams t = t.streams
let stream_capacity t = t.stream_capacity
let set_fault t f = t.fault <- f

let is_live t p = Bytes.unsafe_get t.live p <> '\000'

let set_live t p v =
  if v <> is_live t p then begin
    Bytes.unsafe_set t.live p (if v then '\001' else '\000');
    let eb = p / t.profile.Profile.erase_block_blocks in
    t.valid.(eb) <- (if v then t.valid.(eb) + 1 else t.valid.(eb) - 1)
  end

let check t p = if p < 0 || p >= t.logical_blocks then invalid_arg "Ftl: page out of bounds"

let check_stream t s =
  if s < 0 || s >= t.streams then invalid_arg "Ftl: stream out of bounds"

let live_pages_in t ~start ~len =
  if start < 0 || len < 0 || start + len > t.logical_blocks then
    invalid_arg "Ftl.live_pages_in: range out of bounds";
  let n = ref 0 in
  for p = start to start + len - 1 do
    if is_live t p then incr n
  done;
  !n

let check_eb t name eb = if eb < 0 || eb >= Array.length t.eb_stream then invalid_arg name

let is_open t ~eb =
  check_eb t "Ftl.is_open" eb;
  t.eb_stream.(eb) >= 0

let stream_of_open t ~eb =
  check_eb t "Ftl.stream_of_open" eb;
  let s = t.eb_stream.(eb) in
  if s < 0 then None else Some s

let open_blocks_of_stream t stream =
  check_stream t stream;
  t.n_open.(stream)

(* Position of the open block [eb] in its stream's LRU row. *)
let lru_slot t ~stream eb =
  let base = stream * t.stream_capacity in
  let i = ref 0 in
  while t.open_order.(base + !i) <> eb do
    incr i
  done;
  !i

(* Shift the row's first [n] slots down one and put [eb] first. *)
let push_front t ~stream eb n =
  let base = stream * t.stream_capacity in
  Array.blit t.open_order base t.open_order (base + 1) n;
  t.open_order.(base) <- eb

(* Close the open block [eb]: drop it from its stream's LRU row. *)
let close_eb t eb =
  let s = t.eb_stream.(eb) in
  let base = s * t.stream_capacity in
  let i = lru_slot t ~stream:s eb in
  let n = t.n_open.(s) in
  Array.blit t.open_order (base + i + 1) t.open_order (base + i) (n - i - 1);
  t.n_open.(s) <- n - 1;
  t.appended.(eb) <- 0;
  t.eb_stream.(eb) <- -1

(* Move an open block to the front of its owning stream's LRU. *)
let touch_lru t eb =
  let stream = t.eb_stream.(eb) in
  push_front t ~stream eb (lru_slot t ~stream eb)

(* Wear accessors: per-erase-block erase counts (wpmfs-style wear state;
   the AA scorer bins these to push worn spans down the Best-AA order). *)
let wear_of_eb t ~eb =
  check_eb t "Ftl.wear_of_eb" eb;
  t.wear.(eb)

let max_wear_in t ~start ~len =
  if start < 0 || len < 0 || start + len > t.logical_blocks then
    invalid_arg "Ftl.max_wear_in: range out of bounds";
  if len = 0 then 0
  else begin
    let ebs = t.profile.Profile.erase_block_blocks in
    let lo = start / ebs and hi = (start + len - 1) / ebs in
    let m = ref 0 in
    for eb = lo to hi do
      if t.wear.(eb) > !m then m := t.wear.(eb)
    done;
    !m
  end

let wear_spread t =
  let n = Array.length t.wear in
  if n = 0 then (0, 0)
  else
    Array.fold_left
      (fun (lo, hi) w -> ((if w < lo then w else lo), if w > hi then w else hi))
      (t.wear.(0), t.wear.(0))
      t.wear

(* Open an erase block for a batch that writes the sorted, distinct page
   run [scratch.(lo .. hi-1)] (all inside the block): relocate its live
   pages the batch does not overwrite (OP-absorbed) and erase it.  Those
   are the block's valid count less the run's live pages, so an open
   costs O(run), not a scan of the block.  The stream's least recently
   used open block closes first when its row is full. *)
let open_eb t ~stream eb ~lo ~hi =
  let n = t.n_open.(stream) in
  if n >= t.stream_capacity then
    close_eb t t.open_order.((stream * t.stream_capacity) + n - 1);
  let live_in_run = ref 0 in
  for k = lo to hi - 1 do
    if is_live t t.scratch.(k) then incr live_in_run
  done;
  let live_outside = t.valid.(eb) - !live_in_run in
  let absorb = t.profile.Profile.overprovision /. (1.0 +. t.profile.Profile.overprovision) in
  let relocated = int_of_float (Float.round (float_of_int live_outside *. (1.0 -. absorb))) in
  t.wear.(eb) <- t.wear.(eb) + 1;
  let s = t.per_stream.(stream) in
  s.t_reloc <- s.t_reloc + relocated;
  s.t_device <- s.t_device + relocated;
  s.t_erases <- s.t_erases + 1;
  t.appended.(eb) <- 0;
  t.eb_stream.(eb) <- stream;
  push_front t ~stream eb t.n_open.(stream);
  t.n_open.(stream) <- t.n_open.(stream) + 1

let ensure_scratch t n =
  if Array.length t.scratch < n then begin
    t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0;
    t.torn_scratch <- Array.make (Array.length t.scratch) 0
  end

(* Process one flush's host writes for [stream].  The batch is staged in
   the reused scratch array — sorted and deduplicated (a linear check for
   the CP's presorted slices) and fault-filtered in place — then walked in
   erase-block runs, so a large CP flush costs no per-batch heap beyond
   (rare) scratch growth. *)
let write_batch ?(stream = 0) t pages ~pos ~len:n =
  check_stream t stream;
  if n > 0 then begin
    ensure_scratch t n;
    let scratch = t.scratch in
    for k = 0 to n - 1 do
      let p = pages.(pos + k) in
      check t p;
      scratch.(k) <- p
    done;
    (* Sort and dedup (coalesce rewrites within one flush), then the fault
       plane: failed pages never reach the flash and are dropped here; torn
       pages are programmed (cost is paid) but their content is garbage, so
       they are parked in [torn_scratch] and do not become live. *)
    let host = Wafl_util.Int_sort.sort_uniq scratch ~len:n in
    let torn = ref 0 in
    let kept = ref 0 in
    (match t.fault with
    | None -> kept := host
    | Some dev ->
      for i = 0 to host - 1 do
        let p = scratch.(i) in
        match Wafl_fault.Fault.write dev ~block:p with
        | Wafl_fault.Fault.Written ->
          scratch.(!kept) <- p;
          incr kept
        | Wafl_fault.Fault.Written_torn ->
          scratch.(!kept) <- p;
          incr kept;
          t.torn_scratch.(!torn) <- p;
          incr torn
        | Wafl_fault.Fault.Failed -> ()
      done);
    let kept = !kept in
    let ebs = t.profile.Profile.erase_block_blocks in
    let i = ref 0 in
    while !i < kept do
      let eb = scratch.(!i) / ebs in
      let j = ref (!i + 1) in
      while !j < kept && scratch.(!j) / ebs = eb do
        incr j
      done;
      (* One erase-block run, scratch.(!i .. !j-1).  An open block
         appends for whichever stream touches it; LRU recency moves in its
         owning stream. *)
      if t.eb_stream.(eb) >= 0 then touch_lru t eb else open_eb t ~stream eb ~lo:!i ~hi:!j;
      let written = !j - !i in
      let ps = t.per_stream.(stream) in
      ps.t_host <- ps.t_host + written;
      ps.t_device <- ps.t_device + written;
      let appended = t.appended.(eb) + written in
      let eb_len = min ebs (t.logical_blocks - (eb * ebs)) in
      if appended >= eb_len then close_eb t eb else t.appended.(eb) <- appended;
      for k = !i to !j - 1 do
        set_live t scratch.(k) true
      done;
      i := !j
    done;
    for k = 0 to !torn - 1 do
      set_live t t.torn_scratch.(k) false
    done;
    Wafl_telemetry.Telemetry.add "device.ssd.host_pages_written" host
  end

let trim t p =
  check t p;
  if is_live t p then begin
    set_live t p false;
    t.trimmed_pages <- t.trimmed_pages + 1
  end

let trim_batch t pages ~pos ~len =
  let before = t.trimmed_pages in
  for k = pos to pos + len - 1 do
    trim t pages.(k)
  done;
  t.trimmed_pages - before

let sum_stats per_stream ~trimmed_pages =
  let sum field = Array.fold_left (fun acc s -> acc + field s) 0 per_stream in
  {
    host_pages_written = sum (fun s -> s.host_pages_written);
    device_pages_written = sum (fun s -> s.device_pages_written);
    relocated_pages = sum (fun s -> s.relocated_pages);
    erases = sum (fun s -> s.erases);
    trimmed_pages;
  }

let stream_stats t stream =
  check_stream t stream;
  let s = t.per_stream.(stream) in
  {
    host_pages_written = s.t_host;
    device_pages_written = s.t_device;
    relocated_pages = s.t_reloc;
    erases = s.t_erases;
    trimmed_pages = 0;
  }

(* The drive's totals are the sum of its streams' tallies. *)
let stats t = sum_stats (Array.init t.streams (stream_stats t)) ~trimmed_pages:t.trimmed_pages

let amplification s =
  if s.host_pages_written = 0 then 1.0
  else float_of_int s.device_pages_written /. float_of_int s.host_pages_written

let write_amplification t = amplification (stats t)
let stream_write_amplification t stream = amplification (stream_stats t stream)

let service_time_us t ~(stats_delta : stats) =
  let p = t.profile in
  (float_of_int stats_delta.device_pages_written *. p.Profile.program_us)
  +. (float_of_int stats_delta.relocated_pages *. p.Profile.read_us)
  +. (float_of_int stats_delta.erases *. p.Profile.erase_us)

let diff_stats ~(after : stats) ~(before : stats) =
  {
    host_pages_written = after.host_pages_written - before.host_pages_written;
    device_pages_written = after.device_pages_written - before.device_pages_written;
    relocated_pages = after.relocated_pages - before.relocated_pages;
    erases = after.erases - before.erases;
    trimmed_pages = after.trimmed_pages - before.trimmed_pages;
  }

let reset_stats t =
  t.trimmed_pages <- 0;
  Array.iter
    (fun s ->
      s.t_host <- 0;
      s.t_device <- 0;
      s.t_reloc <- 0;
      s.t_erases <- 0)
    t.per_stream
