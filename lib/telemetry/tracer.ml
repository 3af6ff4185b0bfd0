type event =
  | Cp_begin of { cp : int }
  | Aa_pick of { cp : int; space : int; aa : int; score : int }
  | Cache_replenish of { cp : int; space : int; listed : int }
  | Tetris_write of {
      cp : int;
      space : int;
      tetrises : int;
      full_stripes : int;
      partial_stripes : int;
    }
  | Cleaner_pass of { cp : int; aas : int; relocated : int; reclaimed : int }
  | Fault_inject of {
      cp : int;
      space : int;
      transients : int;
      torn : int;
      failed : int;
      spikes : int;
    }
  | Io_retry of { cp : int; space : int; retries : int; ok : int }
  | Slo_violation of {
      cp : int;
      slo : string;
      burn_fast : float;
      burn_slow : float;
      violations : int;
    }

type t = {
  ring : event array;
  mutable enabled : bool;
  mutable next : int; (* ring slot the next event lands in *)
  mutable emitted : int;
  mutable cp : int;
}

let create ?(capacity = 4096) ?(enabled = false) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    ring = Array.make capacity (Cp_begin { cp = 0 });
    enabled;
    next = 0;
    emitted = 0;
    cp = 0;
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let emitted t = t.emitted
let length t = min t.emitted (Array.length t.ring)
let current_cp t = t.cp

(* The disabled path never reaches here and stays allocation-free. *)
let push t ev =
  t.ring.(t.next) <- ev;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.emitted <- t.emitted + 1

let to_list t =
  let n = length t in
  let cap = Array.length t.ring in
  let oldest = if t.emitted <= cap then 0 else t.next in
  List.init n (fun i -> t.ring.((oldest + i) mod cap))

let cp_begin t =
  t.cp <- t.cp + 1;
  if t.enabled then push t (Cp_begin { cp = t.cp })

let aa_pick t ~space ~aa ~score =
  if t.enabled then push t (Aa_pick { cp = t.cp; space; aa; score })

let cache_replenish t ~space ~listed =
  if t.enabled then push t (Cache_replenish { cp = t.cp; space; listed })

let tetris_write t ~space ~tetrises ~full_stripes ~partial_stripes =
  if t.enabled then
    push t (Tetris_write { cp = t.cp; space; tetrises; full_stripes; partial_stripes })

let cleaner_pass t ~aas ~relocated ~reclaimed =
  if t.enabled then push t (Cleaner_pass { cp = t.cp; aas; relocated; reclaimed })

let fault_inject t ~space ~transients ~torn ~failed ~spikes =
  if t.enabled then
    push t (Fault_inject { cp = t.cp; space; transients; torn; failed; spikes })

let io_retry t ~space ~retries ~ok =
  if t.enabled then push t (Io_retry { cp = t.cp; space; retries; ok })

let slo_violation t ~slo ~burn_fast ~burn_slow ~violations =
  if t.enabled then
    push t (Slo_violation { cp = t.cp; slo; burn_fast; burn_slow; violations })

let event_name = function
  | Cp_begin _ -> "cp_begin"
  | Aa_pick _ -> "aa_pick"
  | Cache_replenish _ -> "cache_replenish"
  | Tetris_write _ -> "tetris_write"
  | Cleaner_pass _ -> "cleaner_pass"
  | Fault_inject _ -> "fault_inject"
  | Io_retry _ -> "io_retry"
  | Slo_violation _ -> "slo_violation"

let event_cp = function
  | Cp_begin { cp } -> cp
  | Aa_pick { cp; _ } -> cp
  | Cache_replenish { cp; _ } -> cp
  | Tetris_write { cp; _ } -> cp
  | Cleaner_pass { cp; _ } -> cp
  | Fault_inject { cp; _ } -> cp
  | Io_retry { cp; _ } -> cp
  | Slo_violation { cp; _ } -> cp
