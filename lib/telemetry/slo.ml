type objective = { name : string; threshold_ms : float; target : float }

let objective ~name ~threshold_ms ~target =
  if String.length name = 0 then Error "SLO name must be non-empty"
  else if String.contains name ':' then
    Error (Printf.sprintf "SLO name %S must not contain ':'" name)
  else if not (threshold_ms > 0.) then
    Error
      (Printf.sprintf "SLO %s: threshold must be > 0 ms (got %g)" name
         threshold_ms)
  else if not (target > 0. && target < 1.) then
    Error
      (Printf.sprintf
         "SLO %s: target must be a fraction in (0,1), e.g. 0.99 (got %g)" name
         target)
  else Ok { name; threshold_ms; target }

let objective_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad SLO spec %S: expected NAME:MS:TARGET, e.g. writes:5:0.99 \
          (95%% of ops under 5 ms would be writes:5:0.95)"
         s)
  in
  match String.split_on_char ':' s with
  | [ name; ms; tgt ] -> (
      match (float_of_string_opt ms, float_of_string_opt tgt) with
      | Some threshold_ms, Some target -> objective ~name ~threshold_ms ~target
      | _ -> fail ())
  | _ -> fail ()

let exact_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let objective_to_string o =
  Printf.sprintf "%s:%s:%s" o.name (exact_float o.threshold_ms) (exact_float o.target)

(* Circular per-CP windows of (ops, violations). *)
type win = {
  w_ops : int array;
  w_viol : int array;
  mutable w_idx : int;
  mutable w_sum_ops : int;
  mutable w_sum_viol : int;
}

let win_create n =
  {
    w_ops = Array.make n 0;
    w_viol = Array.make n 0;
    w_idx = 0;
    w_sum_ops = 0;
    w_sum_viol = 0;
  }

let win_push w ~ops ~viol =
  let i = w.w_idx in
  w.w_sum_ops <- w.w_sum_ops - w.w_ops.(i) + ops;
  w.w_sum_viol <- w.w_sum_viol - w.w_viol.(i) + viol;
  w.w_ops.(i) <- ops;
  w.w_viol.(i) <- viol;
  w.w_idx <- (i + 1) mod Array.length w.w_ops

(* The error budget [1 - target], rounded to 12 decimal places: [1. -.
   0.9] is 0.09999999999999998, which would read a window exactly at
   budget as burn 1.0000000000000002, a breach.  Rounded, a decimal
   target's budget is the nearest double to its decimal value, and the
   burns of whole fractions come out exact.  A target within 5e-13 of 1
   keeps its raw budget rather than rounding to 0. *)
let error_budget target =
  let b = Float.round ((1. -. target) *. 1e12) /. 1e12 in
  if b > 0. then b else 1. -. target

let win_burn w ~budget =
  if w.w_sum_ops = 0 then 0.
  else float_of_int w.w_sum_viol /. float_of_int w.w_sum_ops /. budget

type t = {
  objs : objective array;
  budgets : float array;
  thr_ns : int array;
  fast : win array;
  slow : win array;
}

let create ?(fast_window = 12) ?(slow_window = 120) objectives =
  if objectives = [] then invalid_arg "Slo.create: no objectives";
  if fast_window <= 0 || slow_window <= 0 then
    invalid_arg "Slo.create: windows must be positive";
  let rec check_unique = function
    | [] -> ()
    | o :: rest ->
      if List.exists (fun o' -> o'.name = o.name) rest then
        invalid_arg (Printf.sprintf "duplicate SLO name %S: each objective needs its own name" o.name);
      check_unique rest
  in
  check_unique objectives;
  let objs = Array.of_list objectives in
  {
    objs;
    budgets = Array.map (fun o -> error_budget o.target) objs;
    thr_ns =
      Array.map (fun o -> int_of_float (o.threshold_ms *. 1e6)) objs;
    fast = Array.map (fun _ -> win_create fast_window) objs;
    slow = Array.map (fun _ -> win_create slow_window) objs;
  }

let thresholds_ns t = t.thr_ns

type report = {
  r_name : string;
  r_threshold_ms : float;
  r_target : float;
  r_burn_fast : float;
  r_burn_slow : float;
  r_breach : bool;
  r_violations : int;
  r_window_ops : int;
  r_window_violations : int;
}

let cp_tick t ~ops ~violations =
  if Array.length violations <> Array.length t.objs then
    invalid_arg "Slo.cp_tick: violations length mismatch";
  let reports = ref [] in
  for i = Array.length t.objs - 1 downto 0 do
    let o = t.objs.(i) and viol = violations.(i) in
    win_push t.fast.(i) ~ops ~viol;
    win_push t.slow.(i) ~ops ~viol;
    let burn_fast = win_burn t.fast.(i) ~budget:t.budgets.(i) in
    let burn_slow = win_burn t.slow.(i) ~budget:t.budgets.(i) in
    reports :=
      {
        r_name = o.name;
        r_threshold_ms = o.threshold_ms;
        r_target = o.target;
        r_burn_fast = burn_fast;
        r_burn_slow = burn_slow;
        r_breach = burn_fast > 1. && burn_slow > 1.;
        r_violations = viol;
        r_window_ops = t.slow.(i).w_sum_ops;
        r_window_violations = t.slow.(i).w_sum_viol;
      }
      :: !reports
  done;
  !reports
