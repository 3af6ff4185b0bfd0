(* Fixed-size domain pool with deterministic chunk scheduling.

   Work is expressed as [chunks] indexed closures.  An atomic counter
   hands indices out to whichever domain is free, so load-balancing is
   dynamic, but determinism is preserved structurally: every index runs
   exactly once, results go to slots keyed by index, and failures are
   reported as the lowest failed index (what a serial ascending loop
   would have raised first).

   Completion is a hybrid wait: the caller drains chunks itself, spins
   briefly on the atomic pending counter (cheap for the common case
   where workers finish within microseconds), then blocks on a
   condition variable signalled by whichever domain retires the last
   chunk.  The final decrement of [pending] is the release/acquire edge
   that publishes the workers' non-atomic result writes to the
   caller. *)

module Telemetry = Wafl_telemetry.Telemetry
module Span = Wafl_telemetry.Span

type task = {
  f : int -> unit;
  next : int Atomic.t;
  total : int;
  pending : int Atomic.t;
  failed : (int * exn) option Atomic.t;
  busy_ns : int Atomic.t array;
      (* per-participant busy ns (slot 0 = the caller, slot i = worker i);
         [||] when telemetry was inactive at dispatch, so the untimed path
         adds one array-length branch and nothing else *)
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable task : task option;
  mutable generation : int;
  mutable stop : bool;
  busy : bool Atomic.t;
  mutable live : bool;
}

let jobs t = t.jobs

(* Keep the lowest-index failure: serial order raises it first. *)
let record_failure task idx exn =
  let rec loop () =
    match Atomic.get task.failed with
    | Some (i, _) when i <= idx -> ()
    | cur ->
      if not (Atomic.compare_and_set task.failed cur (Some (idx, exn))) then loop ()
  in
  loop ()

let drain t ~slot task =
  let timed = Array.length task.busy_ns > 0 in
  let rec go () =
    let i = Atomic.fetch_and_add task.next 1 in
    if i < task.total then begin
      (if timed then begin
         let t0 = Span.now_ns () in
         (try task.f i with exn -> record_failure task i exn);
         ignore (Atomic.fetch_and_add task.busy_ns.(slot) (Span.now_ns () - t0))
       end
       else try task.f i with exn -> record_failure task i exn);
      if Atomic.fetch_and_add task.pending (-1) = 1 then begin
        (* Last chunk retired: wake a caller blocked in [await]. *)
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end;
      go ()
    end
  in
  go ()

let rec worker_loop t ~slot gen =
  Mutex.lock t.m;
  while (not t.stop) && t.generation = gen do
    Condition.wait t.work_cv t.m
  done;
  let stop = t.stop in
  let gen = t.generation in
  let task = t.task in
  Mutex.unlock t.m;
  if not stop then begin
    (match task with Some task -> drain t ~slot task | None -> ());
    worker_loop t ~slot gen
  end

let spin_budget = 2_000

let await t task =
  let spins = ref 0 in
  while Atomic.get task.pending > 0 && !spins < spin_budget do
    incr spins;
    Domain.cpu_relax ()
  done;
  if Atomic.get task.pending > 0 then begin
    Mutex.lock t.m;
    while Atomic.get task.pending > 0 do
      Condition.wait t.done_cv t.m
    done;
    Mutex.unlock t.m
  end

(* Per-task worker attribution: sum/max of the per-slot busy times give
   the pool's utilisation and imbalance for this dispatch.  Emitted only
   when telemetry was active at dispatch time, from the caller's domain,
   after [await]'s acquire edge — so the workers' busy stamps are
   visible. *)
let emit_worker_stats t task ~chunks ~t0 =
  let wall = Span.now_ns () - t0 in
  let wall = if wall > 0 then wall else 1 in
  let total_busy = Array.fold_left (fun acc b -> acc + Atomic.get b) 0 task.busy_ns in
  let max_busy = Array.fold_left (fun acc b -> max acc (Atomic.get b)) 0 task.busy_ns in
  Telemetry.incr "par.tasks";
  Telemetry.add "par.chunks" chunks;
  Telemetry.add "par.busy_ns" (max 0 total_busy);
  Telemetry.add "par.idle_ns" (max 0 ((t.jobs * wall) - total_busy));
  Telemetry.set_gauge "par.workers" (float_of_int t.jobs);
  Telemetry.set_gauge "par.busy_frac"
    (float_of_int total_busy /. float_of_int (t.jobs * wall));
  if total_busy > 0 then
    (* max/mean busy across participants: 1.0 = perfectly balanced *)
    Telemetry.set_gauge "par.imbalance"
      (float_of_int (max_busy * t.jobs) /. float_of_int total_busy)

let run_parallel t ~chunks ~f =
  let timed = Telemetry.is_active () in
  let task =
    {
      f;
      next = Atomic.make 0;
      total = chunks;
      pending = Atomic.make chunks;
      failed = Atomic.make None;
      busy_ns = (if timed then Array.init t.jobs (fun _ -> Atomic.make 0) else [||]);
    }
  in
  let t0 = if timed then Span.now_ns () else 0 in
  Mutex.lock t.m;
  t.task <- Some task;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  drain t ~slot:0 task;
  await t task;
  if timed then emit_worker_stats t task ~chunks ~t0;
  match Atomic.get task.failed with None -> () | Some (_, exn) -> raise exn

let run t ~chunks ~f =
  if chunks <= 0 then ()
  else if t.jobs <= 1 || (not t.live) || chunks = 1 then
    for i = 0 to chunks - 1 do
      f i
    done
  else if not (Atomic.compare_and_set t.busy false true) then
    (* Nested run (e.g. issued from inside a chunk): inline serially
       rather than deadlocking on the single task slot. *)
    for i = 0 to chunks - 1 do
      f i
    done
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () -> run_parallel t ~chunks ~f)

let map t ~chunks ~f =
  if chunks <= 0 then [||]
  else begin
    (* Chunk 0 runs inline to seed the array; an exception here is what
       serial order would raise first, so letting it escape is correct. *)
    let first = f 0 in
    let out = Array.make chunks first in
    if chunks > 1 then run t ~chunks:(chunks - 1) ~f:(fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let create ~jobs =
  let jobs = if jobs < 1 then 1 else jobs in
  let t =
    {
      jobs;
      workers = [||];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      task = None;
      generation = 0;
      stop = false;
      busy = Atomic.make false;
      live = true;
    }
  in
  t.workers <-
    Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t ~slot:(i + 1) 0));
  t

let shutdown t =
  if t.live then begin
    t.live <- false;
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let chunk_bounds ~total ~chunks =
  if total <= 0 then [||]
  else begin
    let n = if chunks <= 0 then 1 else if chunks < total then chunks else total in
    Array.init n (fun i ->
        let start = total * i / n in
        (start, (total * (i + 1) / n) - start))
  end

(* Pools are process resources, not settings: systems built one after
   another (an experiment builds dozens) take theirs from this cache by
   size instead of each spawning domains. *)

let cache : (int, t) Hashtbl.t = Hashtbl.create 4

(* One domain needs no workers: every system that runs serially shares
   this handle, whose [run]/[map] are plain loops. *)
let serial = create ~jobs:1

let shared ~jobs =
  if jobs <= 1 then serial
  else
    match Hashtbl.find_opt cache jobs with
    | Some p -> p
    | None ->
      if Hashtbl.length cache = 0 then
        at_exit (fun () -> Hashtbl.iter (fun _ p -> shutdown p) cache);
      let p = create ~jobs in
      Hashtbl.replace cache jobs p;
      p

let ranges t ~min n =
  if t.jobs <= 1 || n < min then [| (0, n) |]
  else chunk_bounds ~total:n ~chunks:(t.jobs * 4)

let run_ranges t ~min n ~f =
  let bounds = ranges t ~min n in
  run t ~chunks:(Array.length bounds) ~f:(fun c ->
      let start, len = bounds.(c) in
      f start len)

let map_ranges t ~min n ~f =
  let bounds = ranges t ~min n in
  map t ~chunks:(Array.length bounds) ~f:(fun c ->
      let start, len = bounds.(c) in
      f start len)
