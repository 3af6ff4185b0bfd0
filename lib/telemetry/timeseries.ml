type kind = Count | Modeled | Measured

let kind_name = function Count -> "count" | Modeled -> "modeled" | Measured -> "measured"

type column = { name : string; unit : string; kind : kind }

type t = {
  cap : int;
  mutable cols : column array;  (* [||] until set_columns *)
  rows : float array array;     (* ring of row copies; slot = seq mod cap *)
  mutable head : int;           (* oldest retained slot *)
  mutable len : int;
  mutable appended : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  { cap = capacity; cols = [||]; rows = Array.make capacity [||]; head = 0; len = 0; appended = 0 }

let set_columns t cols =
  let cols = Array.of_list cols in
  if Array.length t.cols = 0 then t.cols <- cols
  else if t.cols <> cols then
    invalid_arg "Timeseries.set_columns: schema already fixed to different columns"

let schema t = Array.to_list t.cols
let columns t = List.map (fun c -> c.name) (schema t)

let append t row =
  if Array.length t.cols = 0 then invalid_arg "Timeseries.append: no schema set";
  if Array.length row <> Array.length t.cols then
    invalid_arg "Timeseries.append: row width does not match schema";
  let slot =
    if t.len < t.cap then (t.head + t.len) mod t.cap
    else begin
      let s = t.head in
      t.head <- (t.head + 1) mod t.cap;
      s
    end
  in
  t.rows.(slot) <- Array.copy row;
  if t.len < t.cap then t.len <- t.len + 1;
  t.appended <- t.appended + 1

let length t = t.len
let appended t = t.appended

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Timeseries.get: index out of range";
  Array.copy t.rows.((t.head + i) mod t.cap)

let rows t = List.init t.len (fun i -> get t i)
let last t = if t.len = 0 then None else Some (get t (t.len - 1))

let column_index t name =
  let n = Array.length t.cols in
  let rec go i = if i >= n then None else if t.cols.(i).name = name then Some i else go (i + 1) in
  go 0

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.appended <- 0
