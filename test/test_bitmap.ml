(* Tests for Wafl_bitmap: bitmap, metafile, activemap. *)

open Wafl_bitmap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Bitmap --- *)

let test_bitmap_set_get () =
  let b = Bitmap.create ~bits:100 () in
  check_bool "initially clear" false (Bitmap.get b 0);
  Bitmap.set b 0;
  Bitmap.set b 99;
  check_bool "bit 0" true (Bitmap.get b 0);
  check_bool "bit 99" true (Bitmap.get b 99);
  check_bool "bit 50" false (Bitmap.get b 50);
  Bitmap.clear b 0;
  check_bool "cleared" false (Bitmap.get b 0)

let test_bitmap_bounds () =
  let b = Bitmap.create ~bits:10 () in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitmap: index out of bounds") (fun () ->
      ignore (Bitmap.get b 10));
  Alcotest.check_raises "set negative" (Invalid_argument "Bitmap: index out of bounds") (fun () ->
      Bitmap.set b (-1))

let test_bitmap_range_ops () =
  let b = Bitmap.create ~bits:1000 () in
  Bitmap.set_range b ~start:100 ~len:300;
  check_int "count" 300 (Bitmap.count_set b);
  check_bool "edge before" false (Bitmap.get b 99);
  check_bool "first" true (Bitmap.get b 100);
  check_bool "last" true (Bitmap.get b 399);
  check_bool "edge after" false (Bitmap.get b 400);
  Bitmap.clear_range b ~start:150 ~len:100;
  check_int "after clear" 200 (Bitmap.count_set b);
  check_bool "hole start" false (Bitmap.get b 150);
  check_bool "hole end" false (Bitmap.get b 249);
  check_bool "kept" true (Bitmap.get b 250)

let test_bitmap_count_in () =
  let b = Bitmap.create ~bits:256 () in
  Bitmap.set b 10;
  Bitmap.set b 64;
  Bitmap.set b 65;
  Bitmap.set b 200;
  check_int "window" 3 (Bitmap.count_set_in b ~start:10 ~len:60);
  check_int "free in window" 57 (Bitmap.count_clear_in b ~start:10 ~len:60);
  check_int "all" 4 (Bitmap.count_set_in b ~start:0 ~len:256)

(* A count is one popcount per 64-bit word.  Every word kernel inlines
   across modules in the default (release) build, so no [int64] is boxed:
   counting 2,048 words allocates no more than counting one.  The dev
   profile's [-opaque] stops that inlining, and this test with it.
   [Aggregate.used_fraction] sits on this path. *)
let test_bitmap_count_allocation_flat () =
  let b = Bitmap.create ~bits:131_072 () in
  Bitmap.set_range b ~start:1000 ~len:70_000;
  let words ~len =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Bitmap.count_set_in b ~start:3 ~len));
    Gc.minor_words () -. before
  in
  let w_big = words ~len:131_000 and w_tiny = words ~len:60 in
  check_bool
    (Printf.sprintf "2,048-word count allocates no more than a one-word one (%.0f vs %.0f words)"
       w_big w_tiny)
    true (w_big <= w_tiny)

let test_bitmap_find () =
  let b = Bitmap.create ~bits:200 () in
  Bitmap.set_range b ~start:0 ~len:150;
  Alcotest.(check (option int)) "first clear" (Some 150) (Bitmap.find_first_clear b ~from:0);
  Alcotest.(check (option int)) "first clear from 160" (Some 160)
    (Bitmap.find_first_clear b ~from:160);
  Alcotest.(check (option int)) "first set" (Some 0) (Bitmap.find_first_set b ~from:0);
  Alcotest.(check (option int)) "first set from 100" (Some 100)
    (Bitmap.find_first_set b ~from:100);
  Alcotest.(check (option int)) "set after end" None (Bitmap.find_first_set b ~from:150);
  let full = Bitmap.create ~bits:64 () in
  Bitmap.set_range full ~start:0 ~len:64;
  Alcotest.(check (option int)) "no clear" None (Bitmap.find_first_clear full ~from:0)

let test_bitmap_free_extents () =
  let b = Bitmap.create ~bits:100 () in
  Bitmap.set_range b ~start:10 ~len:10;
  Bitmap.set_range b ~start:50 ~len:5;
  let extents = Bitmap.free_extents b ~start:0 ~len:100 in
  check_int "three runs" 3 (List.length extents);
  (match extents with
  | [ a; b'; c ] ->
    check_int "run1 start" 0 (Wafl_block.Extent.start a);
    check_int "run1 len" 10 (Wafl_block.Extent.len a);
    check_int "run2 start" 20 (Wafl_block.Extent.start b');
    check_int "run2 len" 30 (Wafl_block.Extent.len b');
    check_int "run3 start" 55 (Wafl_block.Extent.start c);
    check_int "run3 len" 45 (Wafl_block.Extent.len c)
  | _ -> Alcotest.fail "unexpected extents");
  (* windowed *)
  let windowed = Bitmap.free_extents b ~start:15 ~len:10 in
  check_int "window run" 1 (List.length windowed);
  match windowed with
  | [ e ] ->
    check_int "window start" 20 (Wafl_block.Extent.start e);
    check_int "window len" 5 (Wafl_block.Extent.len e)
  | _ -> Alcotest.fail "unexpected window"

let prop_bitmap_count_matches_naive =
  QCheck.Test.make ~name:"count_set_in matches naive count" ~count:100
    QCheck.(pair (list (int_bound 499)) (pair (int_bound 400) (int_bound 99)))
    (fun (sets, (start, len)) ->
      let b = Bitmap.create ~bits:500 () in
      List.iter (fun i -> Bitmap.set b i) sets;
      let naive = ref 0 in
      for i = start to start + len - 1 do
        if Bitmap.get b i then incr naive
      done;
      Bitmap.count_set_in b ~start ~len = !naive)

let prop_bitmap_free_extents_cover =
  QCheck.Test.make ~name:"free_extents exactly covers clear bits" ~count:100
    QCheck.(list (int_bound 299))
    (fun sets ->
      let b = Bitmap.create ~bits:300 () in
      List.iter (fun i -> Bitmap.set b i) sets;
      let extents = Bitmap.free_extents b ~start:0 ~len:300 in
      let from_extents = Hashtbl.create 64 in
      List.iter
        (fun e ->
          for i = Wafl_block.Extent.start e to Wafl_block.Extent.last e do
            Hashtbl.replace from_extents i ()
          done)
        extents;
      let ok = ref true in
      for i = 0 to 299 do
        let in_ext = Hashtbl.mem from_extents i in
        if in_ext = Bitmap.get b i then ok := false
      done;
      !ok)

(* --- word-at-a-time kernels vs naive per-bit references --- *)

(* Random bitmap of [bits] bits with a ragged window [start, start+len). *)
let ragged_window_gen bits =
  QCheck.(
    triple
      (list (int_bound (bits - 1)))
      (int_bound (bits - 1))
      (int_bound (bits - 1)))

let make_bitmap bits sets =
  let b = Bitmap.create ~bits () in
  List.iter (fun i -> Bitmap.set b i) sets;
  b

let clamp_window bits start len = (start, min len (bits - start))

let prop_fold_clear_matches_naive =
  QCheck.Test.make ~name:"fold_clear_in matches naive clear-bit scan" ~count:200
    (ragged_window_gen 500)
    (fun (sets, start, len) ->
      let start, len = clamp_window 500 start len in
      let b = make_bitmap 500 sets in
      let naive = ref [] in
      for i = start + len - 1 downto start do
        if not (Bitmap.get b i) then naive := i :: !naive
      done;
      let folded =
        List.rev (Bitmap.fold_clear_in b ~start ~len ~init:[] ~f:(fun acc i -> i :: acc))
      in
      folded = !naive)

let prop_harvest_matches_fold =
  QCheck.Test.make ~name:"harvest_clear_into matches fold_clear_in" ~count:200
    (ragged_window_gen 500)
    (fun (sets, start, len) ->
      let start, len = clamp_window 500 start len in
      let b = make_bitmap 500 sets in
      let dst = Array.make 500 (-1) in
      let n = Bitmap.harvest_clear_into b ~start ~len ~offset:1000 ~dst ~pos:0 in
      let harvested = Array.to_list (Array.sub dst 0 n) in
      let expected =
        List.rev
          (Bitmap.fold_clear_in b ~start ~len ~init:[] ~f:(fun acc i -> (i + 1000) :: acc))
      in
      harvested = expected)

let prop_find_first_matches_naive =
  QCheck.Test.make ~name:"find_first_clear/set match naive scans" ~count:200
    QCheck.(pair (list (int_bound 299)) (int_bound 299))
    (fun (sets, from) ->
      let b = make_bitmap 300 sets in
      let naive target =
        let rec go i =
          if i >= 300 then None else if Bitmap.get b i = target then Some i else go (i + 1)
        in
        go from
      in
      Bitmap.find_first_clear b ~from = naive false
      && Bitmap.find_first_set b ~from = naive true)

let prop_fill_range_matches_naive =
  QCheck.Test.make ~name:"set_range/clear_range match per-bit loops" ~count:200
    (ragged_window_gen 500)
    (fun (sets, start, len) ->
      let start, len = clamp_window 500 start len in
      let fast = make_bitmap 500 sets in
      let slow = make_bitmap 500 sets in
      Bitmap.set_range fast ~start ~len;
      for i = start to start + len - 1 do
        Bitmap.set slow i
      done;
      let set_ok = Bitmap.equal fast slow in
      Bitmap.clear_range fast ~start ~len;
      for i = start to start + len - 1 do
        Bitmap.clear slow i
      done;
      set_ok && Bitmap.equal fast slow)

let prop_count_kernels_match_naive =
  QCheck.Test.make ~name:"count_set_in/count_clear_in/free_run_stats match naive" ~count:200
    (ragged_window_gen 500)
    (fun (sets, start, len) ->
      let start, len = clamp_window 500 start len in
      let b = make_bitmap 500 sets in
      let set = ref 0 and runs = ref 0 and largest = ref 0 and cur = ref 0 in
      for i = start to start + len - 1 do
        if Bitmap.get b i then begin
          incr set;
          cur := 0
        end
        else begin
          if !cur = 0 then incr runs;
          incr cur;
          if !cur > !largest then largest := !cur
        end
      done;
      Bitmap.count_set_in b ~start ~len = !set
      && Bitmap.count_clear_in b ~start ~len = len - !set
      && Bitmap.free_run_stats b ~start ~len = (!runs, !largest))

let prop_clear_mask32_matches_naive =
  QCheck.Test.make ~name:"clear_mask32 matches naive 32-bit window" ~count:200
    QCheck.(pair (list (int_bound 299)) (int_bound 299))
    (fun (sets, pos) ->
      let b = make_bitmap 300 sets in
      let naive = ref 0 in
      for i = 31 downto 0 do
        naive := !naive lsl 1;
        if pos + i < 300 && not (Bitmap.get b (pos + i)) then naive := !naive lor 1
      done;
      Bitmap.clear_mask32 b pos = !naive)

(* --- Pagestore byte layout: the format the mmap files persist ---

   A store is whole little-endian 64-bit words: word [w] is bytes
   [8w..8w+7], least significant first, whatever the host order. *)

let test_pagestore_layout () =
  let rng = Random.State.make [| 19 |] in
  let words = 37 in
  let n = words * 8 in
  let img = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let s = Pagestore.of_bytes img in
  check_bool "to_bytes round-trips of_bytes" true (Bytes.equal img (Pagestore.to_bytes s));
  for i = 0 to n - 1 do
    if Pagestore.byte s i <> Char.code (Bytes.get img i) then Alcotest.failf "byte %d" i
  done;
  let little_endian w =
    let x = ref 0L in
    for k = 7 downto 0 do
      let b = Int64.of_int (Char.code (Bytes.get img ((8 * w) + k))) in
      x := Int64.logor (Int64.shift_left !x 8) b
    done;
    !x
  in
  List.iter
    (fun w ->
      Alcotest.(check int64) (Printf.sprintf "word %d" w) (little_endian w) (Pagestore.word s w))
    (0 :: (words - 1) :: List.init 32 (fun _ -> Random.State.int rng words));
  check_bool "a copy is equal" true (Pagestore.equal s (Pagestore.copy s));
  check_bool "sizes differ" false (Pagestore.equal s (Pagestore.create (words - 1)));
  for i = 0 to n - 1 do
    let t = Pagestore.copy s in
    Pagestore.set_byte t i (Pagestore.byte t i lxor 0x80);
    if Pagestore.equal s t || Pagestore.equal t s then
      Alcotest.failf "equal missed a one-byte difference at byte %d" i
  done;
  List.iter
    (fun (pos, len) ->
      let t = Pagestore.copy s in
      Pagestore.fill t ~pos ~len 0x1a5;
      let want = Bytes.copy img in
      Bytes.fill want pos len '\xa5';
      check_bool (Printf.sprintf "fill %d+%d" pos len) true
        (Bytes.equal want (Pagestore.to_bytes t)))
    [ (0, 0); (0, 1); (3, 5); (3, 13); (7, 17); (8, 16); (5, n - 5); (0, n); (n - 1, 1); (n, 0) ];
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "fill %d+%d out of range" pos len)
        (Invalid_argument "Pagestore.fill: range out of bounds")
        (fun () -> Pagestore.fill s ~pos ~len 0))
    [ (-1, 1); (0, -1); (0, n + 1); (n, 1); (n - 3, 4) ];
  Alcotest.check_raises "of_bytes needs whole words"
    (Invalid_argument "Pagestore.of_bytes: not whole words")
    (fun () -> ignore (Pagestore.of_bytes (Bytes.create 12)))

let test_clear_mask32 () =
  let b = Bitmap.create ~bits:100 () in
  Bitmap.set b 0;
  Bitmap.set b 2;
  Bitmap.set b 33;
  (* from bit 0: bits 0 and 2 are set, 33 is outside the 32-bit window *)
  check_int "mask from 0" (lnot 0b101 land 0xFFFFFFFF) (Bitmap.clear_mask32 b 0);
  (* from bit 2: set bits at offsets 0 (=2) and 31 (=33) *)
  check_int "mask from 2" (lnot ((1 lsl 31) lor 1) land 0xFFFFFFFF) (Bitmap.clear_mask32 b 2);
  (* near the end: only bits [90, 100) exist; the rest must read as used *)
  check_int "ragged tail" ((1 lsl 10) - 1) (Bitmap.clear_mask32 b 90)

let test_iter_clear_words_window () =
  let b = Bitmap.create ~bits:200 () in
  Bitmap.set_range b ~start:0 ~len:200;
  Bitmap.clear b 70;
  Bitmap.clear b 130;
  let hits = ref [] in
  Bitmap.iter_clear_words b ~start:65 ~len:70 ~f:(fun ~base ~mask ->
      let m = ref mask in
      while !m <> 0L do
        hits := (base + Wafl_util.Bitops.ctz64 !m) :: !hits;
        m := Int64.logand !m (Int64.sub !m 1L)
      done);
  Alcotest.(check (list int)) "only in-window clear bits" [ 70; 130 ] (List.rev !hits)

let test_bitmap_blit () =
  let a = Bitmap.create ~bits:128 () in
  Bitmap.set_range a ~start:10 ~len:50;
  let b = Bitmap.create ~bits:128 () in
  Bitmap.blit ~src:a ~dst:b;
  check_bool "equal after blit" true (Bitmap.equal a b);
  Bitmap.set b 0;
  check_bool "copies are independent" false (Bitmap.equal a b)

(* --- Metafile --- *)

let test_metafile_paging () =
  let m = Metafile.create ~blocks:100_000 () in
  check_int "pages" 4 (Metafile.pages m);
  check_int "page of 0" 0 (Metafile.page_of_block m 0);
  check_int "page of 32767" 0 (Metafile.page_of_block m 32767);
  check_int "page of 32768" 1 (Metafile.page_of_block m 32768);
  check_int "page of 99999" 3 (Metafile.page_of_block m 99_999)

let test_metafile_alloc_free () =
  let m = Metafile.create ~blocks:1000 () in
  Metafile.allocate m 10;
  check_bool "allocated" true (Metafile.is_allocated m 10);
  Alcotest.check_raises "double alloc"
    (Invalid_argument "Metafile.allocate: VBN already allocated") (fun () ->
      Metafile.allocate m 10);
  Metafile.free m 10;
  check_bool "freed" false (Metafile.is_allocated m 10);
  Alcotest.check_raises "double free" (Invalid_argument "Metafile.free: VBN already free")
    (fun () -> Metafile.free m 10)

let test_metafile_dirty_tracking () =
  let m = Metafile.create ~blocks:100_000 () in
  check_int "clean" 0 (Metafile.dirty_pages m);
  Metafile.allocate m 5;
  Metafile.allocate m 6;
  check_int "one dirty page for colocated" 1 (Metafile.dirty_pages m);
  Metafile.allocate m 40_000;
  check_int "two dirty" 2 (Metafile.dirty_pages m);
  let written = Metafile.flush m in
  check_int "flushed 2" 2 written;
  check_int "clean again" 0 (Metafile.dirty_pages m);
  let stats = Metafile.stats m in
  check_int "cumulative writes" 2 stats.Metafile.page_writes;
  check_int "flushes" 1 stats.Metafile.flushes

let test_metafile_colocation_economy () =
  (* The §2.5 claim: colocated allocations dirty fewer metafile pages. *)
  let colocated = Metafile.create ~blocks:1_000_000 () in
  for i = 0 to 999 do
    Metafile.allocate colocated i
  done;
  let scattered = Metafile.create ~blocks:1_000_000 () in
  for i = 0 to 999 do
    Metafile.allocate scattered (i * 1000)
  done;
  check_int "colocated: 1 page" 1 (Metafile.dirty_pages colocated);
  check_bool "scattered dirties many" true (Metafile.dirty_pages scattered > 20)

let test_metafile_scan_read () =
  let m = Metafile.create ~blocks:100_000 () in
  check_int "scan all" 4 (Metafile.scan_read m ~start:0 ~len:100_000);
  check_int "scan one page" 1 (Metafile.scan_read m ~start:0 ~len:32768);
  check_int "scan straddling" 2 (Metafile.scan_read m ~start:32760 ~len:16);
  check_int "reads accounted" 7 (Metafile.stats m).Metafile.page_reads

let test_metafile_allocate_range () =
  let m = Metafile.create ~blocks:1000 () in
  Metafile.allocate_range m ~start:100 ~len:50;
  check_int "used" 50 (Metafile.used_count m ~start:0 ~len:1000);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Metafile.allocate_range: range not fully free") (fun () ->
      Metafile.allocate_range m ~start:140 ~len:20)

let test_metafile_scan_read_bounds () =
  let m = Metafile.create ~blocks:100_000 () in
  Alcotest.check_raises "scan past end" (Invalid_argument "Metafile.scan_read: range out of bounds")
    (fun () -> ignore (Metafile.scan_read m ~start:99_000 ~len:2000));
  Alcotest.check_raises "negative start" (Invalid_argument "Metafile.scan_read: range out of bounds")
    (fun () -> ignore (Metafile.scan_read m ~start:(-1) ~len:10));
  Alcotest.check_raises "negative len" (Invalid_argument "Metafile.scan_read: range out of bounds")
    (fun () -> ignore (Metafile.scan_read m ~start:0 ~len:(-1)));
  (* empty and exactly-at-the-end ranges are legal *)
  check_int "empty scan" 0 (Metafile.scan_read m ~start:50_000 ~len:0);
  check_int "scan ending at the boundary" 1 (Metafile.scan_read m ~start:99_999 ~len:1);
  check_int "only the boundary scan accounted" 1 (Metafile.stats m).Metafile.page_reads

let test_metafile_page_of_block_bounds () =
  let m = Metafile.create ~blocks:100_000 () in
  Alcotest.check_raises "page of oob VBN" (Invalid_argument "Metafile: VBN out of bounds")
    (fun () -> ignore (Metafile.page_of_block m 100_000));
  Alcotest.check_raises "page of negative VBN" (Invalid_argument "Metafile: VBN out of bounds")
    (fun () -> ignore (Metafile.page_of_block m (-1)))

(* The power-of-two page shift and the division fallback must agree: a
   metafile with a non-power-of-two page size pages identically to the
   naive [vbn / page_bits] map. *)
let test_metafile_non_pow2_pages () =
  let m = Metafile.create ~page_bits:1000 ~blocks:10_500 () in
  check_int "pages" 11 (Metafile.pages m);
  check_int "page of 999" 0 (Metafile.page_of_block m 999);
  check_int "page of 1000" 1 (Metafile.page_of_block m 1000);
  check_int "page of 10499" 10 (Metafile.page_of_block m 10_499);
  check_int "straddling scan" 2 (Metafile.scan_read m ~start:990 ~len:20);
  Metafile.allocate m 999;
  Metafile.allocate m 1000;
  check_int "two dirty pages across the boundary" 2 (Metafile.dirty_pages m)

let test_metafile_snapshot_load () =
  let m = Metafile.create ~blocks:5000 () in
  Metafile.allocate m 42;
  Metafile.allocate m 4999;
  let snap = Metafile.snapshot m in
  Metafile.free m 42;
  Metafile.load m snap;
  check_bool "restored 42" true (Metafile.is_allocated m 42);
  check_bool "restored 4999" true (Metafile.is_allocated m 4999);
  check_int "load clears dirty" 0 (Metafile.dirty_pages m)

(* --- Activemap --- *)

(* The VBNs a commit freed, as a list: the queue array's first
   [freed] slots. *)
let freed_list a (r : Activemap.commit_result) =
  Array.to_list (Array.sub (Activemap.freed a) 0 r.Activemap.freed)

let test_activemap_delayed_free () =
  let a = Activemap.create ~blocks:1000 () in
  Activemap.allocate a 7;
  check_bool "allocated" true (Activemap.is_allocated a 7);
  Activemap.queue_free a 7;
  check_bool "still allocated until commit" true (Activemap.is_allocated a 7);
  check_int "pending" 1 (Activemap.pending_free_count a);
  let result = Activemap.commit a in
  Alcotest.(check (list int)) "freed batch" [ 7 ] (freed_list a result);
  check_bool "free after commit" false (Activemap.is_allocated a 7);
  check_int "no pending" 0 (Activemap.pending_free_count a)

let test_activemap_no_realloc_pending () =
  let a = Activemap.create ~blocks:100 () in
  Activemap.allocate a 3;
  Activemap.queue_free a 3;
  Alcotest.check_raises "pending blocks reallocation"
    (Invalid_argument "Activemap.allocate: VBN has a pending free") (fun () ->
      Activemap.allocate a 3)

let test_activemap_double_queue () =
  let a = Activemap.create ~blocks:100 () in
  Activemap.allocate a 3;
  Activemap.queue_free a 3;
  Alcotest.check_raises "double queue"
    (Invalid_argument "Activemap.queue_free: VBN already queued") (fun () ->
      Activemap.queue_free a 3)

let test_activemap_queue_unallocated () =
  let a = Activemap.create ~blocks:100 () in
  Alcotest.check_raises "free of free VBN"
    (Invalid_argument "Activemap.queue_free: VBN not allocated") (fun () ->
      Activemap.queue_free a 3)

let test_activemap_commit_order () =
  let a = Activemap.create ~blocks:100 () in
  List.iter (Activemap.allocate a) [ 1; 2; 3 ];
  Activemap.queue_free a 2;
  Activemap.queue_free a 1;
  Activemap.queue_free a 3;
  let result = Activemap.commit a in
  Alcotest.(check (list int)) "order preserved" [ 2; 1; 3 ] (freed_list a result)

let test_activemap_commit_flushes_metafile () =
  let a = Activemap.create ~blocks:100_000 () in
  Activemap.allocate a 5;
  Activemap.allocate a 50_000;
  let r = Activemap.commit a in
  check_int "two pages written" 2 r.Activemap.pages_written;
  let r2 = Activemap.commit a in
  check_int "nothing dirty" 0 r2.Activemap.pages_written

let prop_activemap_free_count_consistent =
  QCheck.Test.make ~name:"free_count = blocks - allocated after commits" ~count:100
    QCheck.(list (int_bound 499))
    (fun allocs ->
      let a = Activemap.create ~blocks:500 () in
      let allocated = Hashtbl.create 64 in
      List.iter
        (fun vbn ->
          if not (Hashtbl.mem allocated vbn) then begin
            Activemap.allocate a vbn;
            Hashtbl.replace allocated vbn ()
          end)
        allocs;
      Activemap.free_count a ~start:0 ~len:500 = 500 - Hashtbl.length allocated)

(* The delayed-free commit against its per-VBN reference: after a
   random allocation pattern and a random, page-spanning free queue over
   at least 64k blocks, one commit frees the queue in order, leaves the
   map [Metafile.free] would, writes each dirtied page once and drains
   the queue. *)
let prop_activemap_commit_matches_reference =
  QCheck.Test.make ~name:"commit matches per-VBN free in queue order" ~count:20
    QCheck.(
      quad (int_bound 1_000_000) (int_bound 16_384) (int_range 1 8)
        (oneofl [ 4096; 32768 ]))
    (fun (seed, extra, density, page_bits) ->
      let module Rng = Wafl_util.Rng in
      let blocks = 65_536 + extra in
      let rng = Rng.create ~seed in
      let am = Activemap.create ~page_bits ~blocks () in
      let reference = Metafile.create ~page_bits ~blocks () in
      let allocated = ref [] in
      for vbn = 0 to blocks - 1 do
        if Rng.int rng 8 < density then begin
          Activemap.allocate am vbn;
          Metafile.allocate reference vbn;
          allocated := vbn :: !allocated
        end
      done;
      ignore (Activemap.commit am);
      ignore (Metafile.flush reference);
      let queue = Array.of_list !allocated in
      Rng.shuffle rng queue;
      let queue = Array.sub queue 0 (Rng.int rng (Array.length queue + 1)) in
      Array.iter (Activemap.queue_free am) queue;
      let dirtied = Hashtbl.create 16 in
      Array.iter
        (fun vbn ->
          Metafile.free reference vbn;
          Hashtbl.replace dirtied (Metafile.page_of_block reference vbn) ())
        queue;
      let r = Activemap.commit am in
      freed_list am r = Array.to_list queue
      && Bitmap.equal (Metafile.snapshot (Activemap.metafile am)) (Metafile.snapshot reference)
      && r.Activemap.pages_written = Hashtbl.length dirtied
      && Activemap.pending_free_count am = 0)

(* --- mmap pagestore: remount reproduces persisted state --- *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  dir

let test_mmap_remount () =
  let dir = fresh_dir "wafl_test_bitmap_mmap" in
  let bits_a = 4096 and bits_b = 10000 in
  (* First process: create two stores (deterministic ps0/ps1 sequence)
     and persist a bit pattern into each. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a () in
      let b = Bitmap.create ~bits:bits_b () in
      Bitmap.set a 7;
      Bitmap.set a 4090;
      Bitmap.set_range b ~start:100 ~len:33);
  (* Remount: the same creation order maps the same files, so the bits
     come back without any explicit load step. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a () in
      let b = Bitmap.create ~bits:bits_b () in
      check_bool "bit 7 persisted" true (Bitmap.get a 7);
      check_bool "bit 4090 persisted" true (Bitmap.get a 4090);
      check_int "store a population" 2 (Bitmap.count_set a);
      check_int "store b population" 33 (Bitmap.count_set b);
      check_bool "unset bit stays unset" false (Bitmap.get b 99));
  (* A size change must not inherit stale bytes: recreating store a at a
     different word count zero-fills it. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:(2 * bits_a) () in
      check_int "resized store is zero-filled" 0 (Bitmap.count_set a))

(* Only [~mapped:true] stores join the file sequence: an explicitly
   unmapped store under an installed directory stays anonymous. *)
let test_mmap_explicit_backend_stays_anonymous () =
  let dir = fresh_dir "wafl_test_bitmap_mmap2" in
  Pagestore.with_mmap_dir dir (fun () ->
      let n_before = Array.length (Sys.readdir dir) in
      let s = Pagestore.create ~mapped:false 16 in
      check_bool "unmapped create has no path" true (Pagestore.mapped_path s = None);
      check_int "unmapped create maps no file" n_before (Array.length (Sys.readdir dir)))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_bitmap_count_matches_naive; prop_bitmap_free_extents_cover;
        prop_activemap_free_count_consistent; prop_activemap_commit_matches_reference ]
  in
  let kernel_qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_fold_clear_matches_naive; prop_harvest_matches_fold;
        prop_find_first_matches_naive; prop_fill_range_matches_naive;
        prop_count_kernels_match_naive; prop_clear_mask32_matches_naive ]
  in
  Alcotest.run "wafl_bitmap"
    [
      ( "bitmap",
        [
          Alcotest.test_case "set/get" `Quick test_bitmap_set_get;
          Alcotest.test_case "bounds" `Quick test_bitmap_bounds;
          Alcotest.test_case "range ops" `Quick test_bitmap_range_ops;
          Alcotest.test_case "count in range" `Quick test_bitmap_count_in;
          Alcotest.test_case "count allocation flat" `Quick test_bitmap_count_allocation_flat;
          Alcotest.test_case "find" `Quick test_bitmap_find;
          Alcotest.test_case "free extents" `Quick test_bitmap_free_extents;
          Alcotest.test_case "blit" `Quick test_bitmap_blit;
        ] );
      ( "word kernels",
        [
          Alcotest.test_case "page store byte layout" `Quick test_pagestore_layout;
          Alcotest.test_case "clear_mask32" `Quick test_clear_mask32;
          Alcotest.test_case "iter_clear_words window" `Quick test_iter_clear_words_window;
        ]
        @ kernel_qsuite );
      ( "metafile",
        [
          Alcotest.test_case "paging" `Quick test_metafile_paging;
          Alcotest.test_case "alloc/free" `Quick test_metafile_alloc_free;
          Alcotest.test_case "dirty tracking" `Quick test_metafile_dirty_tracking;
          Alcotest.test_case "colocation economy" `Quick test_metafile_colocation_economy;
          Alcotest.test_case "scan read" `Quick test_metafile_scan_read;
          Alcotest.test_case "scan read bounds" `Quick test_metafile_scan_read_bounds;
          Alcotest.test_case "page_of_block bounds" `Quick test_metafile_page_of_block_bounds;
          Alcotest.test_case "non-power-of-two pages" `Quick test_metafile_non_pow2_pages;
          Alcotest.test_case "allocate range" `Quick test_metafile_allocate_range;
          Alcotest.test_case "snapshot/load" `Quick test_metafile_snapshot_load;
        ] );
      ( "activemap",
        [
          Alcotest.test_case "delayed free" `Quick test_activemap_delayed_free;
          Alcotest.test_case "no realloc while pending" `Quick test_activemap_no_realloc_pending;
          Alcotest.test_case "double queue" `Quick test_activemap_double_queue;
          Alcotest.test_case "queue unallocated" `Quick test_activemap_queue_unallocated;
          Alcotest.test_case "commit order" `Quick test_activemap_commit_order;
          Alcotest.test_case "commit flushes" `Quick test_activemap_commit_flushes_metafile;
        ]
        @ qsuite );
      ( "mmap backend",
        [
          Alcotest.test_case "remount reproduces state" `Quick test_mmap_remount;
          Alcotest.test_case "explicit backend stays anonymous" `Quick
            test_mmap_explicit_backend_stays_anonymous;
        ] );
    ]
