
type stats = {
  host_pages_written : int;
  device_pages_written : int;
  relocated_pages : int;
  erases : int;
  trimmed_pages : int;
}

let zero_stats =
  {
    host_pages_written = 0;
    device_pages_written = 0;
    relocated_pages = 0;
    erases = 0;
    trimmed_pages = 0;
  }

(* Per-stream mutable tally; [stats] snapshots copy it out. *)
type tally = {
  mutable t_host : int;
  mutable t_device : int;
  mutable t_reloc : int;
  mutable t_erases : int;
}

type t = {
  profile : Profile.ssd;
  streams : int;
  stream_capacity : int;            (* open-erase-block budget per stream *)
  logical_blocks : int;
  live : Bytes.t;                   (* 1 byte per logical page *)
  mutable live_count : int;
  appended : (int, int) Hashtbl.t;  (* open eb -> pages appended since open *)
  eb_stream : (int, int) Hashtbl.t; (* open eb -> stream that opened it *)
  open_order : int list array;      (* per-stream LRU, most recent first *)
  wear : int array;                 (* cumulative erases per erase block *)
  per_stream : tally array;
  mutable scratch : int array;      (* write_batch staging (sort + dedup) *)
  mutable torn_scratch : int array; (* fault-plane torn pages of one batch *)
  mutable host_pages_written : int;
  mutable device_pages_written : int;
  mutable relocated_pages : int;
  mutable erases : int;
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
  {
    profile;
    streams;
    (* The drive's open-block budget is split evenly over the write
       streams (each stream gets at least one): real multi-stream drives
       partition a fixed set of simultaneously programmable blocks. *)
    stream_capacity = max 1 (open_blocks / streams);
    logical_blocks;
    live = Bytes.make logical_blocks '\000';
    live_count = 0;
    appended = Hashtbl.create 16;
    eb_stream = Hashtbl.create 16;
    open_order = Array.make streams [];
    wear = Array.make n_ebs 0;
    per_stream =
      Array.init streams (fun _ -> { t_host = 0; t_device = 0; t_reloc = 0; t_erases = 0 });
    scratch = [||];
    torn_scratch = [||];
    host_pages_written = 0;
    device_pages_written = 0;
    relocated_pages = 0;
    erases = 0;
    trimmed_pages = 0;
    fault = None;
  }

let logical_blocks t = t.logical_blocks
let profile t = t.profile
let streams t = t.streams
let stream_capacity t = t.stream_capacity
let set_fault t f = t.fault <- f
let fault t = t.fault

let is_live t p = Bytes.unsafe_get t.live p <> '\000'

let set_live t p v =
  let was = is_live t p in
  if v && not was then begin
    Bytes.unsafe_set t.live p '\001';
    t.live_count <- t.live_count + 1
  end
  else if (not v) && was then begin
    Bytes.unsafe_set t.live p '\000';
    t.live_count <- t.live_count - 1
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

let is_open t ~eb = Hashtbl.mem t.appended eb

let stream_of_open t ~eb = Hashtbl.find_opt t.eb_stream eb

let open_blocks_of_stream t stream =
  check_stream t stream;
  List.length t.open_order.(stream)

let close_eb t eb =
  Hashtbl.remove t.appended eb;
  match Hashtbl.find_opt t.eb_stream eb with
  | None -> ()
  | Some s ->
    Hashtbl.remove t.eb_stream eb;
    t.open_order.(s) <- List.filter (fun e -> e <> eb) t.open_order.(s)

let touch_lru t ~stream eb =
  t.open_order.(stream) <- eb :: List.filter (fun e -> e <> eb) t.open_order.(stream)

(* Wear accessors: per-erase-block erase counts (wpmfs-style wear state;
   the AA scorer bins these to push worn spans down the Best-AA order). *)
let wear_of_eb t ~eb =
  if eb < 0 || eb >= Array.length t.wear then invalid_arg "Ftl.wear_of_eb";
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

(* Open an erase block for a batch that writes the sorted page run
   [scratch.(lo .. hi-1)] (all inside the block): relocate its live pages
   the batch does not overwrite (OP-absorbed) and erase it.  Membership is
   a merge scan over the sorted run — no per-batch set. *)
let open_eb t ~stream eb ~lo ~hi =
  if List.length t.open_order.(stream) >= t.stream_capacity then begin
    match List.rev t.open_order.(stream) with
    | oldest :: _ -> close_eb t oldest
    | [] -> ()
  end;
  let ebs = t.profile.Profile.erase_block_blocks in
  let eb_start = eb * ebs in
  let eb_len = min ebs (t.logical_blocks - eb_start) in
  let live_outside = ref 0 in
  let k = ref lo in
  for p = eb_start to eb_start + eb_len - 1 do
    while !k < hi && t.scratch.(!k) < p do
      incr k
    done;
    let in_batch = !k < hi && t.scratch.(!k) = p in
    if is_live t p && not in_batch then incr live_outside
  done;
  let absorb = t.profile.Profile.overprovision /. (1.0 +. t.profile.Profile.overprovision) in
  let relocated = int_of_float (Float.round (float_of_int !live_outside *. (1.0 -. absorb))) in
  t.relocated_pages <- t.relocated_pages + relocated;
  t.device_pages_written <- t.device_pages_written + relocated;
  t.erases <- t.erases + 1;
  t.wear.(eb) <- t.wear.(eb) + 1;
  let s = t.per_stream.(stream) in
  s.t_reloc <- s.t_reloc + relocated;
  s.t_device <- s.t_device + relocated;
  s.t_erases <- s.t_erases + 1;
  Hashtbl.replace t.appended eb 0;
  Hashtbl.replace t.eb_stream eb stream;
  touch_lru t ~stream eb

let ensure_scratch t n =
  if Array.length t.scratch < n then begin
    t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0;
    t.torn_scratch <- Array.make (Array.length t.scratch) 0
  end

(* Process one flush's host writes for [stream].  The batch is staged in
   the reused scratch array — sorted, deduplicated and fault-filtered in
   place — then walked in erase-block runs, so a large CP flush costs no
   per-batch heap beyond (rare) scratch growth. *)
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
      (* one erase-block run: scratch.(!i .. !j-1) *)
      if not (is_open t ~eb) then open_eb t ~stream eb ~lo:!i ~hi:!j
      else begin
        (* an open block appends for whichever stream touches it; LRU
           recency moves in its owning stream *)
        match Hashtbl.find_opt t.eb_stream eb with
        | Some s -> touch_lru t ~stream:s eb
        | None -> ()
      end;
      let written = !j - !i in
      t.host_pages_written <- t.host_pages_written + written;
      t.device_pages_written <- t.device_pages_written + written;
      let ps = t.per_stream.(stream) in
      ps.t_host <- ps.t_host + written;
      ps.t_device <- ps.t_device + written;
      let appended = (try Hashtbl.find t.appended eb with Not_found -> 0) + written in
      let eb_start = eb * ebs in
      let eb_len = min ebs (t.logical_blocks - eb_start) in
      if appended >= eb_len then close_eb t eb else Hashtbl.replace t.appended eb appended;
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
  for k = pos to pos + len - 1 do
    trim t pages.(k)
  done

let stats t =
  {
    host_pages_written = t.host_pages_written;
    device_pages_written = t.device_pages_written;
    relocated_pages = t.relocated_pages;
    erases = t.erases;
    trimmed_pages = t.trimmed_pages;
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

let write_amplification t =
  if t.host_pages_written = 0 then 1.0
  else float_of_int t.device_pages_written /. float_of_int t.host_pages_written

let stream_write_amplification t stream =
  let s = stream_stats t stream in
  if s.host_pages_written = 0 then 1.0
  else float_of_int s.device_pages_written /. float_of_int s.host_pages_written

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
  t.host_pages_written <- 0;
  t.device_pages_written <- 0;
  t.relocated_pages <- 0;
  t.erases <- 0;
  t.trimmed_pages <- 0;
  Array.iter
    (fun s ->
      s.t_host <- 0;
      s.t_device <- 0;
      s.t_reloc <- 0;
      s.t_erases <- 0)
    t.per_stream
