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

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Start stamps live in one flat int array indexed by
   (domain id mod max_domains, kind).  Each slot is written only by its own
   domain, so plain (non-atomic) stores suffice; a collision would need two
   concurrent domains 128 ids apart, far beyond any pool here. *)
let max_domains = 128
let no_start = min_int

type t = {
  clock : unit -> int;
  counts : int Atomic.t array;    (* completed spans per kind *)
  totals : int Atomic.t array;    (* accumulated ns per kind *)
  opens : int Atomic.t array;     (* currently-open spans per kind *)
  starts : int array;             (* (domain mod max_domains) * n_kinds + kind *)
}

let create ?(clock = now_ns) () =
  {
    clock;
    counts = Array.init n_kinds (fun _ -> Atomic.make 0);
    totals = Array.init n_kinds (fun _ -> Atomic.make 0);
    opens = Array.init n_kinds (fun _ -> Atomic.make 0);
    starts = Array.make (max_domains * n_kinds) no_start;
  }

let slot k = (((Domain.self () :> int) land (max_domains - 1)) * n_kinds) + index k

let enter t k =
  let s = slot k in
  t.starts.(s) <- t.clock ();
  Atomic.incr t.opens.(index k)

let exit t k =
  let s = slot k in
  let start = t.starts.(s) in
  if start <> no_start then begin
    t.starts.(s) <- no_start;
    let i = index k in
    let dt = t.clock () - start in
    ignore (Atomic.fetch_and_add t.totals.(i) (if dt > 0 then dt else 0));
    Atomic.incr t.counts.(i);
    Atomic.decr t.opens.(i)
  end

let count t k = Atomic.get t.counts.(index k)
let total_ns t k = Atomic.get t.totals.(index k)
let open_now t k = Atomic.get t.opens.(index k)

let clear t =
  Array.iter (fun a -> Atomic.set a 0) t.counts;
  Array.iter (fun a -> Atomic.set a 0) t.totals;
  Array.iter (fun a -> Atomic.set a 0) t.opens;
  Array.fill t.starts 0 (Array.length t.starts) no_start
