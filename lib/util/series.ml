type point = { x : float; y : float }

type t = { name : string; points : point list }

let make name pairs = { name; points = List.map (fun (x, y) -> { x; y }) pairs }

let peak_y t =
  match t.points with
  | [] -> invalid_arg "Series.peak_y: empty"
  | p :: ps -> List.fold_left (fun acc q -> Float.max acc q.y) p.y ps

let max_x t =
  match t.points with
  | [] -> invalid_arg "Series.max_x: empty"
  | p :: ps -> List.fold_left (fun acc q -> Float.max acc q.x) p.x ps

let y_at_last t =
  match List.rev t.points with
  | [] -> invalid_arg "Series.y_at_last: empty"
  | p :: _ -> p.y

let interpolate t x =
  let rec go = function
    | p :: (q :: _ as rest) ->
      if x >= p.x && x <= q.x then begin
        if q.x = p.x then Some p.y
        else begin
          let frac = (x -. p.x) /. (q.x -. p.x) in
          Some (p.y +. (frac *. (q.y -. p.y)))
        end
      end
      else go rest
    | [ p ] -> if x = p.x then Some p.y else None
    | [] -> None
  in
  go t.points

let print_all ~header series =
  let tbl = Table.create ~columns:[ ("series", Table.Left); ("x", Table.Right); ("y", Table.Right) ] in
  List.iter
    (fun s ->
      List.iter
        (fun p -> Table.add_row tbl [ s.name; Printf.sprintf "%.6g" p.x; Printf.sprintf "%.6g" p.y ])
        s.points;
      Table.add_rule tbl)
    series;
  print_endline header;
  Table.print tbl
