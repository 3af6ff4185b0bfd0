module Par = Wafl_par.Par

type t = {
  metafile : Metafile.t;
  pending : Bitmap.t;      (* dedupe guard for queued frees *)
  mutable queue : int list; (* reversed order of queue_free calls *)
  mutable n_pending : int;
}

type commit_result = { freed : int list; pages_written : int }

let create ?backend ?page_bits ~blocks () =
  let metafile = Metafile.create ?backend ?page_bits ~blocks () in
  (* The pending mask mirrors the in-memory queue, so it is transient by
     definition: zero it explicitly, since in a re-entered mmap directory
     its backing file may still hold a previous process's bits. *)
  let pending = Bitmap.create ?backend ~bits:blocks () in
  Bitmap.clear_range pending ~start:0 ~len:blocks;
  { metafile; pending; queue = []; n_pending = 0 }

let metafile t = t.metafile
let blocks t = Metafile.blocks t.metafile
let is_allocated t vbn = Metafile.is_allocated t.metafile vbn

let allocate t vbn =
  if Bitmap.get t.pending vbn then
    invalid_arg "Activemap.allocate: VBN has a pending free";
  Metafile.allocate t.metafile vbn

(* Trusted hot-path variant: a free VBN cannot have a pending free
   (queue_free only accepts allocated VBNs), so when the caller
   guarantees the VBN is free — harvest rings do — both checks above are
   redundant. *)
let[@inline] allocate_harvested t vbn = Metafile.allocate_harvested t.metafile vbn

(* {!allocate_harvested} recording the dirtied page in the caller's
   [touched] set instead of the shared dirty state — see
   {!Metafile.allocate_harvested_touched}. *)
let[@inline] allocate_harvested_touched t vbn ~touched =
  Metafile.allocate_harvested_touched t.metafile vbn ~touched

let queue_free t vbn =
  if not (Metafile.is_allocated t.metafile vbn) then
    invalid_arg "Activemap.queue_free: VBN not allocated";
  if Bitmap.get t.pending vbn then
    invalid_arg "Activemap.queue_free: VBN already queued";
  Bitmap.set t.pending vbn;
  t.queue <- vbn :: t.queue;
  t.n_pending <- t.n_pending + 1

let pending_free_count t = t.n_pending
let has_pending_free t vbn = Bitmap.get t.pending vbn

(* Below this many queued frees the bucketing pass costs more than the
   bit clears it spreads out. *)
let par_min_frees = 512

(* Parallel delayed-free apply.  The freed VBNs are bucketed by
   page-aligned chunks of the *block space* (not by queue position):
   bitmap mutation is a byte-granular read-modify-write, so two domains
   may never clear bits in the same byte.  Page-aligned chunk bounds
   (with page_bits a multiple of 8) give every chunk exclusive ownership
   of its map bytes, its pending-bitmap bytes and its dirty pages; the
   per-chunk touched-page sets are merged serially in ascending page
   order afterwards.  Bit-for-bit the map, the pending bitmap and the
   dirty set end up identical to the serial loop. *)
let commit_parallel t pool freed =
  let mf = t.metafile in
  let page_bits = Metafile.page_bits mf in
  let bounds =
    Par.chunk_bounds ~total:(Metafile.blocks mf) ~align:page_bits ~chunks:(Par.jobs pool)
  in
  let nchunks = Array.length bounds in
  if nchunks <= 1 then None
  else begin
    let chunk_of vbn =
      let lo = ref 0 and hi = ref (nchunks - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        let s, _ = bounds.(mid) in
        if vbn >= s then lo := mid else hi := mid - 1
      done;
      !lo
    in
    let counts = Array.make nchunks 0 in
    List.iter (fun vbn -> counts.(chunk_of vbn) <- counts.(chunk_of vbn) + 1) freed;
    let starts = Array.make nchunks 0 in
    for c = 1 to nchunks - 1 do
      starts.(c) <- starts.(c - 1) + counts.(c - 1)
    done;
    let vbns = Array.make t.n_pending 0 in
    let fill = Array.copy starts in
    List.iter
      (fun vbn ->
        let c = chunk_of vbn in
        vbns.(fill.(c)) <- vbn;
        fill.(c) <- fill.(c) + 1)
      freed;
    let touched = Bytes.make (Metafile.pages mf) '\000' in
    Par.run pool ~chunks:nchunks ~f:(fun c ->
        Metafile.free_batch_into mf ~vbns ~pos:starts.(c) ~len:counts.(c) ~touched;
        for i = starts.(c) to starts.(c) + counts.(c) - 1 do
          Bitmap.clear t.pending vbns.(i)
        done);
    Metafile.mark_touched_dirty mf ~touched;
    Some ()
  end

let commit ?(pool = Par.serial) t =
  let freed = List.rev t.queue in
  Wafl_telemetry.Telemetry.span_enter Wafl_telemetry.Span.Bit_clear;
  let parallel =
    if
      Par.jobs pool > 1 && t.n_pending >= par_min_frees
      && Metafile.page_bits t.metafile mod 8 = 0
    then commit_parallel t pool freed
    else None
  in
  (match parallel with
  | Some () -> ()
  | None ->
    List.iter
      (fun vbn ->
        Metafile.free t.metafile vbn;
        Bitmap.clear t.pending vbn)
      freed);
  Wafl_telemetry.Telemetry.span_exit Wafl_telemetry.Span.Bit_clear;
  t.queue <- [];
  t.n_pending <- 0;
  let pages_written = Metafile.flush t.metafile in
  Wafl_telemetry.Telemetry.add "activemap.frees_committed" (List.length freed);
  Wafl_telemetry.Telemetry.add "activemap.pages_written" pages_written;
  { freed; pages_written }

let free_count t ~start ~len = Metafile.free_count t.metafile ~start ~len
