type t = {
  metafile : Metafile.t;
  pending : Bitmap.t;      (* dedupe guard for queued frees *)
  mutable queue : int array; (* queue_free calls in order, [0, n_pending) *)
  mutable n_pending : int;
}

type commit_result = { freed : int; pages_written : int }

let create ?page_bits ~blocks () =
  let metafile = Metafile.create ?page_bits ~blocks () in
  (* The pending mask mirrors the in-memory queue, so it is transient by
     definition: zero it explicitly, since in a re-entered mmap directory
     its backing file may still hold a previous process's bits. *)
  let pending = Bitmap.create ~bits:blocks () in
  Bitmap.clear_range pending ~start:0 ~len:blocks;
  { metafile; pending; queue = Array.make 16 0; n_pending = 0 }

let metafile t = t.metafile
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

let queue_free t vbn =
  if not (Metafile.is_allocated t.metafile vbn) then
    invalid_arg "Activemap.queue_free: VBN not allocated";
  if Bitmap.get t.pending vbn then
    invalid_arg "Activemap.queue_free: VBN already queued";
  Bitmap.set t.pending vbn;
  (* grown by doubling and kept across commits: a steady-state queue
     costs no heap words per free *)
  if t.n_pending = Array.length t.queue then begin
    let grown = Array.make (2 * t.n_pending) 0 in
    Array.blit t.queue 0 grown 0 t.n_pending;
    t.queue <- grown
  end;
  t.queue.(t.n_pending) <- vbn;
  t.n_pending <- t.n_pending + 1

let pending_free_count t = t.n_pending
let has_pending_free t vbn = Bitmap.get t.pending vbn

(* The committed VBNs stay in [queue.(0 .. freed-1)] until the next
   [queue_free] overwrites them: that slice is {!freed}. *)
let commit t =
  let freed = t.n_pending in
  Wafl_telemetry.Telemetry.span_enter Wafl_telemetry.Span.Bit_clear;
  for i = 0 to freed - 1 do
    let vbn = t.queue.(i) in
    Metafile.free t.metafile vbn;
    Bitmap.clear t.pending vbn
  done;
  Wafl_telemetry.Telemetry.span_exit Wafl_telemetry.Span.Bit_clear;
  t.n_pending <- 0;
  let pages_written = Metafile.flush t.metafile in
  Wafl_telemetry.Telemetry.add "activemap.frees_committed" freed;
  Wafl_telemetry.Telemetry.add "activemap.pages_written" pages_written;
  { freed; pages_written }

let freed t = t.queue

let free_count t ~start ~len = Metafile.free_count t.metafile ~start ~len
