type stats = {
  blocks_written : int;
  sequential_writes : int;
  random_writes : int;
  rmw_blocks : int;
  total_us : float;
}

type t = {
  profile : Profile.smr;
  n_blocks : int;
  write_pointers : int array;  (* per zone *)
  mutable last_pos : int option;  (* None before any write *)
  mutable blocks_written : int;
  mutable sequential_writes : int;
  mutable random_writes : int;
  mutable rmw_blocks : int;
  mutable total_us : float;
  mutable fault : Wafl_fault.Fault.device option;
}

let create ?(profile = Profile.default_smr) ~blocks () =
  assert (blocks > 0 && profile.Profile.zone_blocks > 0);
  let zones = Wafl_util.Bitops.ceil_div blocks profile.Profile.zone_blocks in
  {
    profile;
    n_blocks = blocks;
    write_pointers = Array.make zones 0;
    last_pos = None;
    blocks_written = 0;
    sequential_writes = 0;
    random_writes = 0;
    rmw_blocks = 0;
    total_us = 0.0;
    fault = None;
  }

let zones t = Array.length t.write_pointers
let set_fault t f = t.fault <- f

let zone_of_block t b =
  if b < 0 || b >= t.n_blocks then invalid_arg "Smr: block out of bounds";
  b / t.profile.Profile.zone_blocks

let write_pointer t ~zone =
  if zone < 0 || zone >= zones t then invalid_arg "Smr: zone out of bounds";
  t.write_pointers.(zone)

let write_block t pos =
  let zone = zone_of_block t pos in
  let zone_start = zone * t.profile.Profile.zone_blocks in
  let offset = pos - zone_start in
  let wp = t.write_pointers.(zone) in
  let p = t.profile in
  let cost = ref p.Profile.seq_write_us in
  let continues = match t.last_pos with Some last -> pos = last + 1 | None -> false in
  if continues then t.sequential_writes <- t.sequential_writes + 1
  else begin
    t.random_writes <- t.random_writes + 1;
    cost := !cost +. p.Profile.seek_us
  end;
  if offset < wp then begin
    if not continues then begin
      (* Repositioning into the middle of a written shingle zone: the drive
         must read and rewrite the zone's shingled tail.  A contiguous run
         of writes below the write pointer is one such read-modify-write
         pass, so only its first write pays. *)
      let tail = wp - offset in
      t.rmw_blocks <- t.rmw_blocks + tail;
      cost := !cost +. (float_of_int tail *. p.Profile.zone_rmw_us_per_block)
    end
  end
  else t.write_pointers.(zone) <- offset + 1;
  t.blocks_written <- t.blocks_written + 1;
  t.total_us <- t.total_us +. !cost;
  t.last_pos <- Some pos

(* A dropped (failed) write never moves the head or the write pointer; a
   torn write pays the full mechanical cost — the head moved, only the
   content is garbage, which the shingle model does not track per block. *)
let write t pos =
  match t.fault with
  | None -> write_block t pos
  | Some dev -> (
    match Wafl_fault.Fault.write dev ~block:pos with
    | Wafl_fault.Fault.Written | Wafl_fault.Fault.Written_torn -> write_block t pos
    | Wafl_fault.Fault.Failed -> ())

let write_stream t positions =
  let rmw_before = t.rmw_blocks in
  let random_before = t.random_writes in
  List.iter (write t) positions;
  Wafl_telemetry.Telemetry.add "device.smr.blocks_written" (List.length positions);
  Wafl_telemetry.Telemetry.add "device.smr.rmw_blocks" (t.rmw_blocks - rmw_before);
  Wafl_telemetry.Telemetry.add "device.smr.random_writes" (t.random_writes - random_before)

let reset_zone t ~zone =
  if zone < 0 || zone >= zones t then invalid_arg "Smr: zone out of bounds";
  t.write_pointers.(zone) <- 0

let stats t =
  {
    blocks_written = t.blocks_written;
    sequential_writes = t.sequential_writes;
    random_writes = t.random_writes;
    rmw_blocks = t.rmw_blocks;
    total_us = t.total_us;
  }
