type stats = { puts : int; blocks_written : int }

type t = {
  profile : Profile.object_store;
  mutable puts : int;
  mutable blocks_written : int;
  mutable scratch : int array;  (* one batch's blocks, sorted in place *)
  mutable fault : Wafl_fault.Fault.device option;
}

let create ?(profile = Profile.default_object_store) () =
  { profile; puts = 0; blocks_written = 0; scratch = [||]; fault = None }

let set_fault t f = t.fault <- f

(* Dropped blocks never make it into an object PUT; a torn block still
   uploads (the store accepted garbage bytes).  The fault plane sees the
   blocks in the order given, duplicates included.  The kept blocks are
   copied onto the scratch array, sorted there with duplicates dropped,
   and each change of object index is one PUT. *)
let write_batch t vbns ~pos ~len =
  if Array.length t.scratch < len then
    t.scratch <- Array.make (max len (2 * Array.length t.scratch)) 0;
  let scratch = t.scratch in
  let kept = ref 0 in
  for k = pos to pos + len - 1 do
    let vbn = vbns.(k) in
    let keep =
      match t.fault with
      | None -> true
      | Some dev -> (
        match Wafl_fault.Fault.write dev ~block:vbn with
        | Wafl_fault.Fault.Written | Wafl_fault.Fault.Written_torn -> true
        | Wafl_fault.Fault.Failed -> false)
    in
    if keep then begin
      scratch.(!kept) <- vbn;
      incr kept
    end
  done;
  let blocks = Wafl_util.Int_sort.sort_uniq scratch ~len:!kept in
  let object_blocks = t.profile.Profile.object_blocks in
  let puts = ref 0 and last = ref (-1) in
  for k = 0 to blocks - 1 do
    let o = scratch.(k) / object_blocks in
    if o <> !last then begin
      incr puts;
      last := o
    end
  done;
  let puts = !puts in
  t.puts <- t.puts + puts;
  t.blocks_written <- t.blocks_written + blocks;
  Wafl_telemetry.Telemetry.add "device.object.puts" puts;
  Wafl_telemetry.Telemetry.add "device.object.blocks_written" blocks

let cost_us t ~(stats_delta : stats) = float_of_int stats_delta.puts *. t.profile.Profile.put_us

let stats t = { puts = t.puts; blocks_written = t.blocks_written }

let diff_stats ~(after : stats) ~(before : stats) =
  { puts = after.puts - before.puts; blocks_written = after.blocks_written - before.blocks_written }
