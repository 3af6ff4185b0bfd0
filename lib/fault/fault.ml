open Wafl_telemetry

type spec = {
  seed : int;
  transient_p : float;
  transient_burst_max : int;
  torn_p : float;
  spike_p : float;
  spike_us : float;
  retry_budget : int;
  retry_backoff_us : float;
  bad_ranges : (int * int * int) list;
  offline_after : (int * int) list;
  degraded_after : (int * int) list;
  rot_pages : (int * int * int) list;
  lost_pages : (int * int * int) list;
}

let default_spec =
  {
    seed = 42;
    transient_p = 0.01;
    transient_burst_max = 2;
    torn_p = 0.0;
    spike_p = 0.0;
    spike_us = 250.0;
    retry_budget = 6;
    retry_backoff_us = 50.0;
    bad_ranges = [];
    offline_after = [];
    degraded_after = [];
    rot_pages = [];
    lost_pages = [];
  }

(* --- spec parsing ----------------------------------------------------- *)

let parse_field acc field =
  match acc with
  | Error _ as e -> e
  | Ok spec -> (
    let field = String.trim field in
    if field = "" then Ok spec
    else
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "fault spec: missing '=' in %S" field)
      | Some i -> (
        let key = String.trim (String.sub field 0 i) in
        let v = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
        let int_v () =
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "fault spec: %s expects an integer, got %S" key v)
        in
        let float_v () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "fault spec: %s expects a number, got %S" key v)
        in
        (* DEV@IOS pairs for offline=/degraded= *)
        let at_pair () =
          match String.split_on_char '@' v with
          | [ d; ios ] -> (
            match (int_of_string_opt d, int_of_string_opt ios) with
            | Some d, Some ios -> Ok (d, ios)
            | _ -> Error (Printf.sprintf "fault spec: %s expects DEV@IOS, got %S" key v))
          | _ -> Error (Printf.sprintf "fault spec: %s expects DEV@IOS, got %S" key v)
        in
        match key with
        | "seed" -> Result.map (fun n -> { spec with seed = n }) (int_v ())
        | "transient" -> Result.map (fun f -> { spec with transient_p = f }) (float_v ())
        | "burst" -> Result.map (fun n -> { spec with transient_burst_max = n }) (int_v ())
        | "torn" -> Result.map (fun f -> { spec with torn_p = f }) (float_v ())
        | "spike" -> (
          (* spike=P or spike=P:US *)
          match String.split_on_char ':' v with
          | [ p ] -> (
            match float_of_string_opt p with
            | Some p -> Ok { spec with spike_p = p }
            | None -> Error (Printf.sprintf "fault spec: spike expects P or P:US, got %S" v))
          | [ p; us ] -> (
            match (float_of_string_opt p, float_of_string_opt us) with
            | Some p, Some us -> Ok { spec with spike_p = p; spike_us = us }
            | _ -> Error (Printf.sprintf "fault spec: spike expects P or P:US, got %S" v))
          | _ -> Error (Printf.sprintf "fault spec: spike expects P or P:US, got %S" v))
        | "retries" -> Result.map (fun n -> { spec with retry_budget = n }) (int_v ())
        | "backoff" -> Result.map (fun f -> { spec with retry_backoff_us = f }) (float_v ())
        | "bad" -> (
          (* bad=DEV:START+LEN *)
          match String.split_on_char ':' v with
          | [ d; range ] -> (
            match String.split_on_char '+' range with
            | [ start; len ] -> (
              match
                (int_of_string_opt d, int_of_string_opt start, int_of_string_opt len)
              with
              | Some d, Some s, Some l ->
                Ok { spec with bad_ranges = spec.bad_ranges @ [ (d, s, l) ] }
              | _ -> Error (Printf.sprintf "fault spec: bad expects DEV:START+LEN, got %S" v))
            | _ -> Error (Printf.sprintf "fault spec: bad expects DEV:START+LEN, got %S" v))
          | _ -> Error (Printf.sprintf "fault spec: bad expects DEV:START+LEN, got %S" v))
        | "rot" | "lost" -> (
          (* rot=STORE:PAGE[@GEN] / lost=STORE:PAGE[@GEN] — persisted
             pagestore corruption, applied by the integrity plane at the
             CP whose committed generation reaches GEN (defaults: 1 for
             rot, 2 for lost — a lost write needs a previous generation
             to revert to). *)
          let default_gen = if key = "rot" then 1 else 2 in
          let parsed =
            match String.split_on_char '@' v with
            | [ sp ] -> Some (sp, Some default_gen)
            | [ sp; g ] -> Some (sp, int_of_string_opt g)
            | _ -> None
          in
          match parsed with
          | Some (sp, Some gen) -> (
            match String.split_on_char ':' sp with
            | [ s; p ] -> (
              match (int_of_string_opt s, int_of_string_opt p) with
              | Some s, Some p ->
                if key = "rot" then
                  Ok { spec with rot_pages = spec.rot_pages @ [ (s, p, gen) ] }
                else Ok { spec with lost_pages = spec.lost_pages @ [ (s, p, gen) ] }
              | _ ->
                Error
                  (Printf.sprintf "fault spec: %s expects STORE:PAGE[@GEN], got %S" key v))
            | _ ->
              Error (Printf.sprintf "fault spec: %s expects STORE:PAGE[@GEN], got %S" key v))
          | _ -> Error (Printf.sprintf "fault spec: %s expects STORE:PAGE[@GEN], got %S" key v)
          )
        | "offline" ->
          Result.map
            (fun p -> { spec with offline_after = spec.offline_after @ [ p ] })
            (at_pair ())
        | "degraded" ->
          Result.map
            (fun p -> { spec with degraded_after = spec.degraded_after @ [ p ] })
            (at_pair ())
        | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key)))

let spec_of_string s =
  let r = List.fold_left parse_field (Ok default_spec) (String.split_on_char ',' s) in
  match r with
  | Error _ as e -> e
  | Ok spec ->
    if spec.transient_p < 0.0 || spec.transient_p > 1.0 then
      Error "fault spec: transient must be in [0,1]"
    else if spec.torn_p < 0.0 || spec.torn_p > 1.0 then Error "fault spec: torn must be in [0,1]"
    else if spec.spike_p < 0.0 || spec.spike_p > 1.0 then
      Error "fault spec: spike must be in [0,1]"
    else if spec.transient_burst_max < 1 then Error "fault spec: burst must be >= 1"
    else if spec.retry_budget < 0 then Error "fault spec: retries must be >= 0"
    else if
      List.exists (fun (s, p, g) -> s < 0 || p < 0 || g < 1) (spec.rot_pages @ spec.lost_pages)
    then Error "fault spec: rot/lost expect STORE >= 0, PAGE >= 0, GEN >= 1"
    else Ok spec

let spec_to_string spec =
  let exact_float = Slo.exact_float in
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "seed=%d" spec.seed);
  Buffer.add_string buf (Printf.sprintf ",transient=%s" (exact_float spec.transient_p));
  Buffer.add_string buf (Printf.sprintf ",burst=%d" spec.transient_burst_max);
  if spec.torn_p > 0.0 then
    Buffer.add_string buf (Printf.sprintf ",torn=%s" (exact_float spec.torn_p));
  Buffer.add_string buf
    (Printf.sprintf ",spike=%s:%s" (exact_float spec.spike_p) (exact_float spec.spike_us));
  Buffer.add_string buf (Printf.sprintf ",retries=%d" spec.retry_budget);
  Buffer.add_string buf (Printf.sprintf ",backoff=%s" (exact_float spec.retry_backoff_us));
  List.iter
    (fun (d, s, l) -> Buffer.add_string buf (Printf.sprintf ",bad=%d:%d+%d" d s l))
    spec.bad_ranges;
  List.iter
    (fun (d, ios) -> Buffer.add_string buf (Printf.sprintf ",offline=%d@%d" d ios))
    spec.offline_after;
  List.iter
    (fun (d, ios) -> Buffer.add_string buf (Printf.sprintf ",degraded=%d@%d" d ios))
    spec.degraded_after;
  List.iter
    (fun (s, p, g) -> Buffer.add_string buf (Printf.sprintf ",rot=%d:%d@%d" s p g))
    spec.rot_pages;
  List.iter
    (fun (s, p, g) -> Buffer.add_string buf (Printf.sprintf ",lost=%d:%d@%d" s p g))
    spec.lost_pages;
  Buffer.contents buf

(* --- plane and device handles ----------------------------------------- *)

type health = Healthy | Degraded | Offline

type io_stats = {
  ios : int;
  injected_transient : int;
  retries : int;
  retries_ok : int;
  torn : int;
  failed : int;
  spikes : int;
  penalty_us : float;
}

let zero_stats =
  {
    ios = 0;
    injected_transient = 0;
    retries = 0;
    retries_ok = 0;
    torn = 0;
    failed = 0;
    spikes = 0;
    penalty_us = 0.0;
  }

let diff_stats ~before ~after =
  {
    ios = after.ios - before.ios;
    injected_transient = after.injected_transient - before.injected_transient;
    retries = after.retries - before.retries;
    retries_ok = after.retries_ok - before.retries_ok;
    torn = after.torn - before.torn;
    failed = after.failed - before.failed;
    spikes = after.spikes - before.spikes;
    penalty_us = after.penalty_us -. before.penalty_us;
  }

let add_stats a b =
  {
    ios = a.ios + b.ios;
    injected_transient = a.injected_transient + b.injected_transient;
    retries = a.retries + b.retries;
    retries_ok = a.retries_ok + b.retries_ok;
    torn = a.torn + b.torn;
    failed = a.failed + b.failed;
    spikes = a.spikes + b.spikes;
    penalty_us = a.penalty_us +. b.penalty_us;
  }

type t = { plane_spec : spec; rng : Wafl_util.Rng.t }

type device = {
  id : int;
  dspec : spec;
  drng : Wafl_util.Rng.t;
  bad : (int * int) array;  (** (start, len), device-local, for this device only *)
  offline_at : int;  (** I/O count threshold, max_int = never *)
  degraded_at : int;
  mutable dhealth : health;
  mutable st : io_stats;
}

let create spec = { plane_spec = spec; rng = Wafl_util.Rng.create ~seed:spec.seed }
let spec t = t.plane_spec

let device t ~id =
  let s = t.plane_spec in
  let bad =
    Array.of_list
      (List.filter_map (fun (d, st, l) -> if d = id then Some (st, l) else None) s.bad_ranges)
  in
  let threshold l = List.fold_left (fun acc (d, ios) -> if d = id then min acc ios else acc) max_int l in
  {
    id;
    dspec = s;
    drng = Wafl_util.Rng.split t.rng;
    bad;
    offline_at = threshold s.offline_after;
    degraded_at = threshold s.degraded_after;
    dhealth = Healthy;
    st = zero_stats;
  }

let set_health d h =
  (match (d.dhealth, h) with
  | (Healthy | Degraded), Offline -> Telemetry.incr "fault.offline_transitions"
  | Healthy, Degraded -> Telemetry.incr "fault.degraded_transitions"
  | _ -> ());
  d.dhealth <- h

let online d = d.dhealth <> Offline
let stats d = d.st

type write_result = Written | Written_torn | Failed

(* Bad ranges are few (usually 0); linear probes are fine. *)
let in_bad_range d block =
  let n = Array.length d.bad in
  let rec go i =
    if i >= n then false
    else
      let s, l = Array.unsafe_get d.bad i in
      (block >= s && block < s + l) || go (i + 1)
  in
  go 0

let range_faulty d ~start ~len =
  if d.dhealth = Offline then true
  else
    let n = Array.length d.bad in
    let rec go i =
      if i >= n then false
      else
        let s, l = Array.unsafe_get d.bad i in
        (start < s + l && s < start + len) || go (i + 1)
    in
    go 0

let write d ~block =
  let s = d.dspec in
  let ios = d.st.ios + 1 in
  (* scheduled health transitions fire on I/O counts *)
  if ios >= d.offline_at && d.dhealth <> Offline then set_health d Offline
  else if ios >= d.degraded_at && d.dhealth = Healthy then set_health d Degraded;
  if d.dhealth = Offline then begin
    d.st <- { d.st with ios; failed = d.st.failed + 1 };
    Telemetry.incr "fault.write_failures";
    Failed
  end
  else if in_bad_range d block then begin
    d.st <- { d.st with ios; failed = d.st.failed + 1 };
    Telemetry.incr "fault.write_failures";
    Failed
  end
  else begin
    let transient_p =
      if d.dhealth = Degraded then Float.min 1.0 (2.0 *. s.transient_p) else s.transient_p
    in
    let st = ref { d.st with ios } in
    let result = ref Written in
    (* transient error: the burst length is how many consecutive attempts
       fail; the retry budget either outlives it or the write fails. *)
    if transient_p > 0.0 && Wafl_util.Rng.float d.drng 1.0 < transient_p then begin
      let burst = 1 + Wafl_util.Rng.int d.drng s.transient_burst_max in
      let attempts_used = min burst s.retry_budget in
      let backoff =
        (* sum of retry_backoff_us * 2^k for k in [0, attempts_used) *)
        s.retry_backoff_us *. (float_of_int ((1 lsl attempts_used) - 1))
      in
      st :=
        {
          !st with
          injected_transient = !st.injected_transient + 1;
          retries = !st.retries + attempts_used;
          penalty_us = !st.penalty_us +. backoff;
        };
      Telemetry.incr "fault.injected_transient";
      Telemetry.add "fault.retries" attempts_used;
      if burst >= s.retry_budget then begin
        st := { !st with failed = !st.failed + 1 };
        Telemetry.incr "fault.write_failures";
        result := Failed
      end
      else begin
        st := { !st with retries_ok = !st.retries_ok + 1 };
        Telemetry.incr "fault.retries_ok"
      end
    end;
    if !result <> Failed then begin
      if s.torn_p > 0.0 && Wafl_util.Rng.float d.drng 1.0 < s.torn_p then begin
        st := { !st with torn = !st.torn + 1 };
        Telemetry.incr "fault.torn_writes";
        result := Written_torn
      end;
      if s.spike_p > 0.0 && Wafl_util.Rng.float d.drng 1.0 < s.spike_p then begin
        st := { !st with spikes = !st.spikes + 1; penalty_us = !st.penalty_us +. s.spike_us };
        Telemetry.incr "fault.latency_spikes"
      end
    end;
    d.st <- !st;
    !result
  end
