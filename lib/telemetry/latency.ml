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

let model =
  {
    cpu_base_us_per_op = 100.0;
    metafile_page_cpu_us = 15.0;
    metafile_page_write_us = 25.0;
    cache_work_unit_us = 0.05;
    alloc_candidate_us = 8.0;
  }

let max_vols = 16
let max_exemplars = 32

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
  slo : Slo.t option;
  (* Histograms are created on first record, so idle cells cost nothing. *)
  cells : Hdrhist.t option array; (* n_ops * max_vols, per (op, vol slot) *)
  vol_hists : Hdrhist.t option array; (* max_vols, both ops *)
  overall : Hdrhist.t;
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

let create ?slo () =
  {
    slo;
    cells = Array.make (n_ops * max_vols) None;
    vol_hists = Array.make max_vols None;
    overall = Hdrhist.create ();
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
    if t.vols_used < max_vols then begin
      let i = t.vols_used in
      t.vol_ids.(i) <- uid;
      t.vol_names.(i) <- name;
      t.vols_used <- i + 1;
      i
    end
    else max_vols - 1 (* overflow volumes share the last slot *)

let vols t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((i, t.vol_names.(i)) :: acc)
  in
  go (t.vols_used - 1) []

(* --- read side ------------------------------------------------------- *)

(* Stands in for a histogram nothing has been recorded into; never
   written. *)
let empty = Hdrhist.create ()

let stored hists i =
  if i < 0 || i >= Array.length hists then empty
  else match hists.(i) with Some h -> h | None -> empty

let hist ?vol t =
  match vol with None -> t.overall | Some v -> stored t.vol_hists v

let cell t ~op ~vol =
  if vol < 0 || vol >= max_vols then empty
  else stored t.cells ((op_index op * max_vols) + vol)

let quantiles_ms ?vol t =
  let h = hist ?vol t in
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

let created hists i =
  match hists.(i) with
  | Some h -> h
  | None ->
    let h = Hdrhist.create () in
    hists.(i) <- Some h;
    h

(* Record [count] ops of one (vol, op) run, positions [pos .. pos+count-1]
   of [n] in the arrival window.  Integer-only per-op arithmetic: zero
   minor-heap words in steady state.  An empty run creates no histogram. *)
let record_run t ~thr_ns ~op ~vol ~count ~pos ~n ~arrival_ns ~total_ns ~phase =
  if count = 0 then pos
  else begin
    let cell = created t.cells ((op_index op * max_vols) + vol) in
    let vol_hist = created t.vol_hists vol in
    let n_thr = Array.length thr_ns in
    for j = 0 to count - 1 do
      let p = pos + j in
      let ns = total_ns + (arrival_ns * (n - 1 - p) / n) in
      Hdrhist.record cell ns;
      Hdrhist.record vol_hist ns;
      Hdrhist.record t.overall ns;
      for k = 0 to n_thr - 1 do
        if ns > thr_ns.(k) then t.slo_over.(k) <- t.slo_over.(k) + 1
      done;
      if t.ex_threshold_ns > 0 && ns >= t.ex_threshold_ns then
        capture_exemplar t ~ns ~op ~vol ~phase
    done;
    pos + count
  end

let cp_record t ~groups ~pages ~cache_work ~candidates ~device_us ~spike_us
    ~pick_ns ~harvest_ns =
  let n = List.fold_left (fun a (_, f, o) -> a + f + o) 0 groups in
  if n > 0 then begin
    let fn = float_of_int n in
    let cache_us = float_of_int cache_work *. model.cache_work_unit_us in
    let scan_us = float_of_int candidates *. model.alloc_candidate_us in
    let pages_us =
      float_of_int pages *. (model.metafile_page_cpu_us +. model.metafile_page_write_us)
    in
    let cpu_us = (model.cpu_base_us_per_op *. fn) +. cache_us in
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
    let pos = ref 0 in
    List.iter
      (fun (vol, fresh, over) ->
        let vol =
          if vol < 0 then 0
          else if vol >= max_vols then max_vols - 1
          else vol
        in
        pos :=
          record_run t ~thr_ns ~op:Write ~vol ~count:fresh ~pos:!pos ~n
            ~arrival_ns ~total_ns ~phase;
        pos :=
          record_run t ~thr_ns ~op:Overwrite ~vol ~count:over ~pos:!pos
            ~n ~arrival_ns ~total_ns ~phase)
      groups;
    t.total_ops <- t.total_ops + n;
    t.prev_cp_us <- total_us;
    t.cps <- t.cps + 1;
    (* Re-arm the exemplar threshold from the overall p999 so "top bucket"
       tracks the whole run, not just this CP. *)
    t.ex_threshold_ns <- max 1 (Hdrhist.quantile t.overall 0.999);
    (match t.slo with
    | Some s ->
      t.last_reports <- Slo.cp_tick s ~ops:n ~violations:t.slo_over;
      Array.fill t.slo_over 0 (Array.length t.slo_over) 0
    | None -> ())
  end
