type kind =
  | Cp
  | Pick
  | Harvest
  | Tetris_write
  | Device_flush
  | Activemap_commit
  | Bit_clear
  | Place
  | Refile
  | Publish
  | Mount_rebuild
  | Iron
  | Cleaner
  | Scrub

let all =
  [
    Cp; Pick; Harvest; Tetris_write; Device_flush; Activemap_commit; Bit_clear; Place;
    Refile; Publish; Mount_rebuild; Iron; Cleaner; Scrub;
  ]

let index = function
  | Cp -> 0
  | Pick -> 1
  | Harvest -> 2
  | Tetris_write -> 3
  | Device_flush -> 4
  | Activemap_commit -> 5
  | Bit_clear -> 6
  | Place -> 7
  | Refile -> 8
  | Publish -> 9
  | Mount_rebuild -> 10
  | Iron -> 11
  | Cleaner -> 12
  | Scrub -> 13

let n_kinds = 14

let name = function
  | Cp -> "cp"
  | Pick -> "cp.pick"
  | Harvest -> "cp.harvest"
  | Tetris_write -> "cp.tetris_write"
  | Device_flush -> "cp.device_flush"
  | Activemap_commit -> "cp.activemap_commit"
  | Bit_clear -> "cp.activemap_commit.bit_clear"
  | Place -> "cp.place"
  | Refile -> "cp.refile"
  | Publish -> "cp.publish"
  | Mount_rebuild -> "mount.rebuild"
  | Iron -> "iron"
  | Cleaner -> "cleaner"
  | Scrub -> "scrub"

let parent = function
  | Cp | Mount_rebuild | Iron | Cleaner | Scrub -> None
  | Pick | Harvest | Tetris_write | Device_flush | Activemap_commit | Place | Refile | Publish ->
    Some Cp
  | Bit_clear -> Some Activemap_commit

let rec depth k = match parent k with None -> 0 | Some p -> 1 + depth p

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let no_start = min_int

type t = {
  clock : unit -> int;
  counts : int array;  (* completed spans per kind *)
  totals : int array;  (* accumulated ns per kind *)
  opens : int array;  (* currently-open spans per kind *)
  starts : int array;  (* start stamp per kind, [no_start] when closed *)
}

let create ?(clock = now_ns) () =
  {
    clock;
    counts = Array.make n_kinds 0;
    totals = Array.make n_kinds 0;
    opens = Array.make n_kinds 0;
    starts = Array.make n_kinds no_start;
  }

let enter t k =
  let i = index k in
  t.starts.(i) <- t.clock ();
  t.opens.(i) <- t.opens.(i) + 1

let exit t k =
  let i = index k in
  let start = t.starts.(i) in
  if start <> no_start then begin
    t.starts.(i) <- no_start;
    let dt = t.clock () - start in
    t.totals.(i) <- t.totals.(i) + (if dt > 0 then dt else 0);
    t.counts.(i) <- t.counts.(i) + 1;
    t.opens.(i) <- t.opens.(i) - 1
  end

let count t k = t.counts.(index k)
let total_ns t k = t.totals.(index k)
let open_now t k = t.opens.(index k)

let clear t =
  List.iter (fun a -> Array.fill a 0 n_kinds 0) [ t.counts; t.totals; t.opens ];
  Array.fill t.starts 0 n_kinds no_start
