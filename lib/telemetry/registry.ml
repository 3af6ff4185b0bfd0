type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : float }

type metric = Counter of counter | Gauge of gauge

type t = {
  table : (string, metric) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let register t name make =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add t.table name m;
    t.order <- name :: t.order;
    m

let counter t name =
  match register t name (fun () -> Counter { c_name = name; c_count = 0 }) with
  | Counter c -> c
  | Gauge _ ->
    invalid_arg (Printf.sprintf "Registry.counter: %S is not a counter" name)

let gauge t name =
  match register t name (fun () -> Gauge { g_name = name; g_value = 0.0 }) with
  | Gauge g -> g
  | Counter _ ->
    invalid_arg (Printf.sprintf "Registry.gauge: %S is not a gauge" name)

let incr c = c.c_count <- c.c_count + 1

let add c n =
  if n < 0 then invalid_arg "Registry.add: negative increment";
  c.c_count <- c.c_count + n

let count c = c.c_count

let set g v = g.g_value <- v

let set_max g v = if v > g.g_value then g.g_value <- v

let value g = g.g_value

let name = function Counter c -> c.c_name | Gauge g -> g.g_name

let fold t ~init ~f =
  List.fold_left (fun acc n -> f acc (Hashtbl.find t.table n)) init (List.rev t.order)

let find t name = Hashtbl.find_opt t.table name

let clear t =
  Hashtbl.iter
    (fun _ -> function Counter c -> c.c_count <- 0 | Gauge g -> g.g_value <- 0.0)
    t.table
