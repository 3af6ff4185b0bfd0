(* Counters and gauges are Atomic-backed so increments from several
   domains are never lost (the multi-domain hammer test in
   test_telemetry exercises this).  The registry table itself is guarded by a mutex:
   registration is rare, but first-touch of a name can race when two
   domains emit the same new counter simultaneously. *)

type counter = { c_name : string; c_count : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

type metric = Counter of counter | Gauge of gauge

type t = {
  table : (string, metric) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 64; order = []; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception exn ->
    Mutex.unlock t.lock;
    raise exn

let register t name make =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.add t.table name m;
        t.order <- name :: t.order;
        m)

let counter t name =
  match register t name (fun () -> Counter { c_name = name; c_count = Atomic.make 0 }) with
  | Counter c -> c
  | Gauge _ ->
    invalid_arg (Printf.sprintf "Registry.counter: %S is not a counter" name)

let gauge t name =
  match register t name (fun () -> Gauge { g_name = name; g_value = Atomic.make 0.0 }) with
  | Gauge g -> g
  | Counter _ ->
    invalid_arg (Printf.sprintf "Registry.gauge: %S is not a gauge" name)

let incr c = Atomic.incr c.c_count

let add c n =
  if n < 0 then invalid_arg "Registry.add: negative increment";
  ignore (Atomic.fetch_and_add c.c_count n)

let count c = Atomic.get c.c_count

let set g v = Atomic.set g.g_value v

let rec set_max g v =
  let cur = Atomic.get g.g_value in
  if v > cur && not (Atomic.compare_and_set g.g_value cur v) then set_max g v

let value g = Atomic.get g.g_value

let name = function Counter c -> c.c_name | Gauge g -> g.g_name

let fold t ~init ~f =
  let order = with_lock t (fun () -> List.rev t.order) in
  List.fold_left (fun acc n -> f acc (Hashtbl.find t.table n)) init order

let find t name = with_lock t (fun () -> Hashtbl.find_opt t.table name)

let clear t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.c_count 0
          | Gauge g -> Atomic.set g.g_value 0.0)
        t.table)
