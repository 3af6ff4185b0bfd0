type op = Write | Overwrite

let op_index = function Write -> 0 | Overwrite -> 1
let op_name = function Write -> "write" | Overwrite -> "overwrite"
let all_ops = [ Write; Overwrite ]
let n_ops = 2

type model = {
  cpu_base_us_per_op : float;
  metafile_page_cpu_us : float;
  metafile_page_write_us : float;
  cache_work_unit_us : float;
  alloc_candidate_us : float;
}

(* Must stay field-for-field equal to Sim.Cost_model.default; a test pins
   this against Cost_model.latency_model Cost_model.default. *)
let default_model =
  {
    cpu_base_us_per_op = 100.0;
    metafile_page_cpu_us = 15.0;
    metafile_page_write_us = 25.0;
    cache_work_unit_us = 0.05;
    alloc_candidate_us = 8.0;
  }

(* One recording domain's private histograms: a cell per (op, vol slot)
   plus an overall one, created lazily so idle cells cost nothing.  Only
   the owning domain writes; readers merge possibly-stale counts and
   become exact after the domain's next synchronising edge (e.g. pool task
   completion). *)
type shard = {
  cells : Hdrhist.t option array; (* n_ops * max_vols *)
  mutable overall : Hdrhist.t option;
}

(* Preallocated exemplar slot: every field is an immediate (ints and
   constant constructors), so capture is a handful of plain stores. *)
type slot = {
  mutable e_ns : int;
  mutable e_op : op;
  mutable e_vol : int;
  mutable e_cp : int;
  mutable e_phase : Span.kind;
}

type exemplar = {
  ex_ns : int;
  ex_op : op;
  ex_vol : int;
  ex_vol_name : string;
  ex_cp : int;
  ex_phase : Span.kind;
}

type t = {
  model : model;
  slo : Slo.t option;
  max_vols : int;
  lock : Mutex.t; (* guards shard-table growth only *)
  shards : shard option array Atomic.t; (* indexed by domain id *)
  (* Serial CP-boundary state below. *)
  vol_ids : int array; (* uid per slot; -1 = empty *)
  vol_names : string array;
  mutable vols_used : int;
  mutable prev_cp_us : float;
  mutable cps : int;
  mutable total_ops : int;
  mutable ex_threshold_ns : int; (* 0 = not yet armed *)
  ex_slots : slot array;
  mutable ex_next : int;
  mutable ex_count : int;
  slo_over : int array; (* per-objective violation scratch *)
  mutable last_reports : Slo.report list;
}

let create ?(model = default_model) ?slo ?(max_vols = 16) ?(max_exemplars = 32)
    () =
  if max_vols < 1 then invalid_arg "Latency.create: max_vols < 1";
  if max_exemplars < 1 then invalid_arg "Latency.create: max_exemplars < 1";
  {
    model;
    slo;
    max_vols;
    lock = Mutex.create ();
    shards = Atomic.make (Array.make 8 None);
    vol_ids = Array.make max_vols (-1);
    vol_names = Array.make max_vols "";
    vols_used = 0;
    prev_cp_us = 0.;
    cps = 0;
    total_ops = 0;
    ex_threshold_ns = 0;
    ex_slots =
      Array.init max_exemplars (fun _ ->
          { e_ns = 0; e_op = Write; e_vol = 0; e_cp = 0; e_phase = Span.Cp });
    ex_next = 0;
    ex_count = 0;
    slo_over =
      (match slo with
      | Some s -> Array.make (Array.length (Slo.thresholds_ns s)) 0
      | None -> [||]);
    last_reports = [];
  }

let vol_slot t ~uid ~name =
  let rec find i =
    if i >= t.vols_used then -1 else if t.vol_ids.(i) = uid then i else find (i + 1)
  in
  match find 0 with
  | i when i >= 0 -> i
  | _ ->
    if t.vols_used < t.max_vols then begin
      let i = t.vols_used in
      t.vol_ids.(i) <- uid;
      t.vol_names.(i) <- name;
      t.vols_used <- i + 1;
      i
    end
    else t.max_vols - 1 (* overflow volumes share the last slot *)

let vols t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((i, t.vol_names.(i)) :: acc)
  in
  go (t.vols_used - 1) []

(* --- recording ------------------------------------------------------- *)

let new_shard t =
  { cells = Array.make (n_ops * t.max_vols) None; overall = None }

(* Slow path: grow the shard table (Registry idiom — publish through the
   Atomic, grow under the lock, copy shard references). *)
let rec shard_for t =
  let id = (Domain.self () :> int) in
  let shards = Atomic.get t.shards in
  if id < Array.length shards then begin
    match shards.(id) with
    | Some s -> s
    | None ->
      let s = new_shard t in
      Mutex.lock t.lock;
      let shards = Atomic.get t.shards in
      (match shards.(id) with
      | Some _ -> ()
      | None -> shards.(id) <- Some s);
      Mutex.unlock t.lock;
      shard_for t
  end
  else begin
    Mutex.lock t.lock;
    let shards = Atomic.get t.shards in
    (if id >= Array.length shards then begin
       let n = ref (max 8 (Array.length shards)) in
       while !n <= id do
         n := !n * 2
       done;
       Atomic.set t.shards
         (Array.init !n (fun i ->
              if i < Array.length shards then shards.(i) else None))
     end);
    Mutex.unlock t.lock;
    shard_for t
  end

let cell_hist s idx =
  match s.cells.(idx) with
  | Some h -> h
  | None ->
    let h = Hdrhist.create () in
    s.cells.(idx) <- Some h;
    h

let overall_hist s =
  match s.overall with
  | Some h -> h
  | None ->
    let h = Hdrhist.create () in
    s.overall <- Some h;
    h

let record t ~op ~vol ns =
  let vol = if vol < 0 then 0 else if vol >= t.max_vols then t.max_vols - 1 else vol in
  let s = shard_for t in
  Hdrhist.record (cell_hist s ((op_index op * t.max_vols) + vol)) ns;
  Hdrhist.record (overall_hist s) ns

(* --- read side ------------------------------------------------------- *)

let merged ?op ?vol t =
  let dst = Hdrhist.create () in
  let shards = Atomic.get t.shards in
  Array.iter
    (function
      | None -> ()
      | Some s -> (
        match (op, vol) with
        | None, None -> (
          match s.overall with
          | Some h -> Hdrhist.merge_into ~dst h
          | None -> ())
        | _ ->
          List.iter
            (fun o ->
              match op with
              | Some o' when o' <> o -> ()
              | _ ->
                for v = 0 to t.max_vols - 1 do
                  match vol with
                  | Some v' when v' <> v -> ()
                  | _ -> (
                    match s.cells.((op_index o * t.max_vols) + v) with
                    | Some h -> Hdrhist.merge_into ~dst h
                    | None -> ())
                done)
            all_ops))
    shards;
  dst

let quantiles_ms ?op ?vol t =
  let h = merged ?op ?vol t in
  if Hdrhist.count h = 0 then (0., 0., 0.)
  else
    let ms q = float_of_int (Hdrhist.quantile h q) /. 1e6 in
    (ms 0.5, ms 0.99, ms 0.999)

let ops_recorded t = t.total_ops
let cps_recorded t = t.cps

let exemplars t =
  let n = min t.ex_count (Array.length t.ex_slots) in
  let out = ref [] in
  for i = 0 to n - 1 do
    let s = t.ex_slots.(i) in
    out :=
      {
        ex_ns = s.e_ns;
        ex_op = s.e_op;
        ex_vol = s.e_vol;
        ex_vol_name =
          (if s.e_vol >= 0 && s.e_vol < t.vols_used then t.vol_names.(s.e_vol)
           else "?");
        ex_cp = s.e_cp;
        ex_phase = s.e_phase;
      }
      :: !out
  done;
  List.sort (fun a b -> compare b.ex_ns a.ex_ns) !out

let phase_stack kind =
  let rec up k acc =
    let acc = Span.name k :: acc in
    match Span.parent k with None -> acc | Some p -> up p acc
  in
  String.concat " > " (up kind [])

let last_slo_reports t = t.last_reports

(* --- the modeled clock ----------------------------------------------- *)

let capture_exemplar t ~ns ~op ~vol ~phase =
  let cap = Array.length t.ex_slots in
  let i =
    if t.ex_count < cap then begin
      let i = t.ex_count in
      t.ex_count <- i + 1;
      i
    end
    else begin
      (* Ring is full: overwrite round-robin so late-run tails still land. *)
      let i = t.ex_next mod cap in
      t.ex_next <- t.ex_next + 1;
      i
    end
  in
  let s = t.ex_slots.(i) in
  s.e_ns <- ns;
  s.e_op <- op;
  s.e_vol <- vol;
  s.e_cp <- t.cps;
  s.e_phase <- phase

(* Record [count] ops of one (vol, op) run, positions [pos .. pos+count-1]
   of [n] in the arrival window.  Integer-only per-op arithmetic: zero
   minor-heap words in steady state. *)
let record_run t ~shard ~thr_ns ~op ~vol ~count ~pos ~n ~arrival_ns ~total_ns
    ~phase =
  let oi = op_index op in
  let cell = cell_hist shard ((oi * t.max_vols) + vol) in
  let overall = overall_hist shard in
  let n_thr = Array.length thr_ns in
  for j = 0 to count - 1 do
    let p = pos + j in
    let ns = total_ns + (arrival_ns * (n - 1 - p) / n) in
    Hdrhist.record cell ns;
    Hdrhist.record overall ns;
    for k = 0 to n_thr - 1 do
      if ns > thr_ns.(k) then t.slo_over.(k) <- t.slo_over.(k) + 1
    done;
    if t.ex_threshold_ns > 0 && ns >= t.ex_threshold_ns then
      capture_exemplar t ~ns ~op ~vol ~phase
  done;
  pos + count

let cp_record t ~groups ~pages ~cache_work ~candidates ~device_us ~spike_us
    ~pick_ns ~harvest_ns =
  let n = List.fold_left (fun a (_, f, o) -> a + f + o) 0 groups in
  if n > 0 then begin
    let m = t.model in
    let fn = float_of_int n in
    let cache_us = float_of_int cache_work *. m.cache_work_unit_us in
    let scan_us = float_of_int candidates *. m.alloc_candidate_us in
    let pages_us =
      float_of_int pages *. (m.metafile_page_cpu_us +. m.metafile_page_write_us)
    in
    let cpu_us = (m.cpu_base_us_per_op *. fn) +. cache_us in
    let total_us = cpu_us +. scan_us +. pages_us +. device_us in
    (* Ops accumulated while the previous CP drained; the first CP has no
       predecessor, so its batch is treated as arriving over its own
       duration. *)
    let arrival_us = if t.cps = 0 then total_us else t.prev_cp_us in
    let total_ns = int_of_float (total_us *. 1e3) in
    let arrival_ns = int_of_float (arrival_us *. 1e3) in
    (* Blame = dominant modeled component of this CP.  device_us already
       includes the injected spike penalty, so a big spike pulls blame to
       the device flush; spike_us only breaks the tie toward the device
       when penalties are a material share. *)
    let device_eff =
      if spike_us > 0.25 *. device_us then device_us *. 1.5 else device_us
    in
    let phase =
      if device_eff >= scan_us && device_eff >= pages_us && device_eff >= cpu_us
      then Span.Device_flush
      else if scan_us >= pages_us && scan_us >= cpu_us then
        if harvest_ns > pick_ns then Span.Harvest else Span.Pick
      else if pages_us >= cpu_us then Span.Activemap_commit
      else Span.Cp
    in
    let thr_ns =
      match t.slo with Some s -> Slo.thresholds_ns s | None -> [||]
    in
    let shard = shard_for t in
    let pos = ref 0 in
    List.iter
      (fun (vol, fresh, over) ->
        let vol =
          if vol < 0 then 0
          else if vol >= t.max_vols then t.max_vols - 1
          else vol
        in
        pos :=
          record_run t ~shard ~thr_ns ~op:Write ~vol ~count:fresh ~pos:!pos ~n
            ~arrival_ns ~total_ns ~phase;
        pos :=
          record_run t ~shard ~thr_ns ~op:Overwrite ~vol ~count:over ~pos:!pos
            ~n ~arrival_ns ~total_ns ~phase)
      groups;
    t.total_ops <- t.total_ops + n;
    t.prev_cp_us <- total_us;
    t.cps <- t.cps + 1;
    (* Re-arm the exemplar threshold from the merged p999 so "top bucket"
       tracks the whole run, not just this CP. *)
    t.ex_threshold_ns <- max 1 (Hdrhist.quantile (merged t) 0.999);
    (match t.slo with
    | Some s ->
      t.last_reports <- Slo.cp_tick s ~ops:n ~violations:t.slo_over;
      Array.fill t.slo_over 0 (Array.length t.slo_over) 0
    | None -> ())
  end
