open Wafl_bitmap
open Wafl_aa
open Wafl_telemetry

type image = {
  config : Config.t;
  agg_bits : Bitmap.t;
  vol_bits : (string * Bitmap.t) array;
  topaa : (Space.label * Space.topaa option) array;
      (* one entry per space, in [Fs.spaces] order; [None] for a
         cacheless space *)
  nvram : (string * int * int) list;      (* logged ops since the last CP *)
  namespace : (string * Flexvol.namespace) array;
      (* per volume: container map and file block maps — the durable
         namespace Iron cross-checks *)
}

type verify_report = {
  pages_verified : int;
  torn_pages : int;
  stale_pages : int;
  ahead_pages : int;
  unverified_stores : int;
  ranges_quarantined : int;
  vols_quarantined : int;
}

let empty_verify_report =
  {
    pages_verified = 0;
    torn_pages = 0;
    stale_pages = 0;
    ahead_pages = 0;
    unverified_stores = 0;
    ranges_quarantined = 0;
    vols_quarantined = 0;
  }

type timing = {
  topaa_blocks_read : int;
  metafile_pages_scanned : int;
  aas_scored : int;
  ops_replayed : int;
  ready_us : float;
  verify : verify_report option;
}

type cost_model = {
  page_read_us : float;
  page_scan_cpu_us : float;
  seed_insert_us : float;
  replay_op_us : float;
}

let cost =
  { page_read_us = 250.0; page_scan_cpu_us = 40.0; seed_insert_us = 0.2; replay_op_us = 5.0 }

let snapshot fs =
  let aggregate = Fs.aggregate fs in
  {
    config = Fs.config fs;
    agg_bits = Metafile.snapshot (Aggregate.metafile aggregate);
    vol_bits =
      Array.map (fun v -> (Flexvol.name v, Metafile.snapshot (Flexvol.metafile v))) (Fs.vols fs);
    topaa = Array.map (fun (s : Space.t) -> (s.Space.label, Space.save_topaa s)) (Fs.spaces fs);
    nvram = Fs.staged_ops fs;
    namespace =
      Array.map (fun v -> (Flexvol.name v, Flexvol.export_namespace v)) (Fs.vols fs);
  }

let corrupt_block p =
  let i = Pagestore.length_bytes p / 2 in
  Pagestore.set_byte p i (Pagestore.byte p i lxor 0x5a)

let corrupt_topaa image label =
  match Array.find_map (fun (l, t) -> if l = label then t else None) image.topaa with
  | None -> invalid_arg "Mount.corrupt_topaa: no space with TopAA pages has this label"
  | Some (Space.Topaa_heap page) -> corrupt_block page
  | Some (Space.Topaa_hbps (histogram, list_page)) ->
    corrupt_block histogram;
    corrupt_block list_page

(* Model a torn write to an aggregate bitmap-metafile page: the first half
   of the page reached the platter, the second half did not (reads back as
   zeros, i.e. "free").  Iron detects the resulting container references
   to unallocated PVBNs as [Dangling_container]. *)
let tear_agg_bitmap_page image ~page =
  let page_bits = Wafl_block.Units.bits_per_metafile_block in
  let total = Bitmap.length image.agg_bits in
  let start = page * page_bits in
  if page < 0 || start >= total then
    invalid_arg "Mount.tear_agg_bitmap_page: page out of range";
  let half = start + (page_bits / 2) in
  let len = min (page_bits / 2) (total - half) in
  if len > 0 then Bitmap.clear_range image.agg_bits ~start:half ~len

(* --- verified remount: sidecar classification over the mapped stores --- *)

(* Classify every tracked metafile store of [fs] against its persisted
   sidecar.  Pure with respect to the data pages (ahead pages are folded
   into the committed generation by [Integrity.verify_store]); the caller
   decides when to quarantine and reseal — the restore path must classify
   {e before} the image blit rewrites the stores, but rebuild requests
   only make sense {e after} it. *)
let classify_stores fs =
  let aggregate = Fs.aggregate fs in
  let totals = ref empty_verify_report in
  let consider store =
    match Integrity.verify_store store with
    | None -> []
    | Some r ->
      let t = !totals in
      totals :=
        {
          t with
          pages_verified = t.pages_verified + r.Integrity.pages;
          torn_pages = t.torn_pages + List.length r.Integrity.torn;
          stale_pages = t.stale_pages + List.length r.Integrity.stale;
          ahead_pages = t.ahead_pages + r.Integrity.ahead;
          unverified_stores =
            (t.unverified_stores + if r.Integrity.sidecar_loaded then 0 else 1);
        };
      r.Integrity.torn @ r.Integrity.stale
  in
  let agg_store = Metafile.store (Aggregate.metafile aggregate) in
  let agg_bad = consider agg_store in
  let bad_ranges = Aggregate.ranges_of_pages aggregate agg_bad in
  let bad_vols =
    Array.to_list (Fs.vols fs)
    |> List.filter_map (fun vol ->
           match consider (Metafile.store (Flexvol.metafile vol)) with
           | [] -> None
           | pages -> Some (vol, Metafile.store (Flexvol.metafile vol), pages))
  in
  (!totals, agg_store, agg_bad, bad_ranges, bad_vols)

(* Damage routing: the cost of a verified remount is proportional to the
   damage — only the ranges/volumes a bad page overlaps are rescanned.
   Returns the classification's report, which telemetry also counts. *)
let quarantine fs (totals, _, _, bad_ranges, bad_vols) =
  Rebuild.request (Fs.aggregate fs)
    (Rebuild.Spaces
       (List.map (fun (r : Aggregate.range) -> r.Aggregate.space) bad_ranges
       @ List.map (fun (vol, _, _) -> Flexvol.space vol) bad_vols));
  let r =
    {
      totals with
      ranges_quarantined = List.length bad_ranges;
      vols_quarantined = List.length bad_vols;
    }
  in
  Telemetry.incr "mount.verified_mounts";
  Telemetry.add "mount.verify_pages" r.pages_verified;
  Telemetry.add "mount.verify_torn" r.torn_pages;
  Telemetry.add "mount.verify_stale" r.stale_pages;
  Telemetry.add "mount.verify_quarantined_ranges" r.ranges_quarantined;
  Telemetry.add "mount.verify_quarantined_vols" r.vols_quarantined;
  r

let verify_pagestores fs =
  let ((_, agg_store, agg_bad, _, bad_vols) as classified) = classify_stores fs in
  let report = quarantine fs classified in
  (* The persisted bits are all we have on this path: take them as bitmap
     truth, re-stamp the damaged pages, and let the caller's Iron pass
     settle bitmap-vs-container disagreements under container
     authority. *)
  List.iter (Integrity.reseal_page agg_store) agg_bad;
  List.iter (fun (_, store, pages) -> List.iter (Integrity.reseal_page store) pages) bad_vols;
  report

(* Restore space state into a fresh system.  The caches Fs.create builds
   assume an empty file system; drop them — the caller installs TopAA
   seeds, runs a full-scan rebuild, or leaves them to first touch. *)
let restore ?(verify = false) ?run image =
  let config =
    match run with None -> image.config | Some run -> { image.config with Config.run }
  in
  let fs = Fs.create config in
  (* Classification must see the persisted bytes, so it runs between the
     store mapping above and the image blit below; the blit then heals the
     data (and [Metafile.load] re-stamps the sidecar state), leaving only
     the damage-proportional rescans to issue afterwards. *)
  let pre = if verify then Some (classify_stores fs) else None in
  let aggregate = Fs.aggregate fs in
  Metafile.load (Aggregate.metafile aggregate) image.agg_bits;
  Array.iter
    (fun (name, bits) -> Metafile.load (Flexvol.metafile (Fs.vol fs name)) bits)
    image.vol_bits;
  Array.iter (fun (name, ns) -> Flexvol.import_namespace (Fs.vol fs name) ns) image.namespace;
  Array.iter (fun (s : Space.t) -> s.Space.cache <- None) (Fs.spaces fs);
  let vreport = Option.map (quarantine fs) pre in
  (fs, vreport)

let mount_body ?(lazy_rebuild = false) ?(verify = false) ?run image ~with_topaa =
  let fs, vreport = restore ~verify ?run image in
  (* replay the NVRAM log: the logged client operations are re-staged so
     the first CP commits them (no data loss across the takeover) *)
  List.iter
    (fun (vol_name, file, offset) ->
      Fs.stage_write fs ~vol:(Fs.vol fs vol_name) ~file ~offset)
    image.nvram;
  let ops_replayed = List.length image.nvram in
  let replay_us = float_of_int ops_replayed *. cost.replay_op_us in
  let timing ~blocks ~pages ~aas ~ready_us =
    {
      topaa_blocks_read = blocks;
      metafile_pages_scanned = pages;
      aas_scored = aas;
      ops_replayed;
      ready_us;
      verify = vreport;
    }
  in
  let aggregate = Fs.aggregate fs in
  let spaces = Fs.spaces fs in
  (* A lazy mount marks every space stale before seeding: whatever the
     TopAA pass installs below stays an approximation until that space's
     first touch (pick, harvest, Iron scan, cleaner pass) pays its exact
     rescore.  Fault fallbacks rebuild from the bitmap right here, which
     clears their flag. *)
  if lazy_rebuild then begin
    Telemetry.incr "mount.lazy_mounts";
    Array.iter (fun (s : Space.t) -> s.Space.stale <- true) spaces
  end;
  if with_topaa then begin
    (* Constant work: the TopAA pages of every cached space — one block
       for a heap, two HBPS pages — whatever the aggregate's size.  A
       cacheless space has none to read. *)
    let blocks_read = ref 0 and seeds = ref 0 and fallback_pages = ref 0 in
    Array.iteri
      (fun i s ->
        match snd image.topaa.(i) with
        | None -> ()
        | Some topaa ->
          let inserted, scanned = Space.seed s topaa in
          blocks_read := !blocks_read + Space.topaa_pages topaa;
          seeds := !seeds + inserted;
          fallback_pages := !fallback_pages + scanned)
      spaces;
    let blocks_read = !blocks_read in
    let ready_us =
      (float_of_int blocks_read *. cost.page_read_us)
      +. (float_of_int !seeds *. cost.seed_insert_us)
      +. (float_of_int !fallback_pages *. (cost.page_read_us +. cost.page_scan_cpu_us))
      +. replay_us
    in
    if not lazy_rebuild then Rebuild.request ~vols:(Fs.vols fs) aggregate Rebuild.Full;
    Telemetry.incr "mount.topaa_mounts";
    Telemetry.add "mount.topaa_blocks_read" blocks_read;
    Telemetry.add "mount.topaa_seeds" !seeds;
    Telemetry.add "mount.fallback_pages_scanned" !fallback_pages;
    (fs, timing ~blocks:blocks_read ~pages:!fallback_pages ~aas:0 ~ready_us)
  end
  else if lazy_rebuild then begin
    (* No TopAA and no scan either: the system comes up with no caches at
       all and every space pays its exact rescore on first touch —
       mount-ready time is the NVRAM replay alone, independent of
       aggregate size. *)
    Telemetry.incr "mount.deferred_scan_mounts";
    (fs, timing ~blocks:0 ~pages:0 ~aas:0 ~ready_us:replay_us)
  end
  else begin
    (* Full scan: read every bitmap page of the aggregate and every volume,
       recompute every AA score, rebuild the caches. *)
    let agg_pages =
      Metafile.scan_read (Aggregate.metafile aggregate) ~start:0
        ~len:(Aggregate.total_blocks aggregate)
    in
    let vol_pages =
      Array.fold_left
        (fun acc vol ->
          acc + Metafile.scan_read (Flexvol.metafile vol) ~start:0 ~len:(Flexvol.blocks vol))
        0 (Fs.vols fs)
    in
    Rebuild.request ~vols:(Fs.vols fs) aggregate Rebuild.Full;
    let aas =
      Array.fold_left
        (fun acc (s : Space.t) -> acc + Topology.aa_count s.Space.topology)
        0 spaces
    in
    let pages = agg_pages + vol_pages in
    Telemetry.incr "mount.full_scan_mounts";
    Telemetry.add "mount.scan_pages" pages;
    Telemetry.add "mount.aas_scored" aas;
    let ready_us =
      (float_of_int pages *. (cost.page_read_us +. cost.page_scan_cpu_us))
      +. (float_of_int aas *. cost.seed_insert_us)
      +. replay_us
    in
    (fs, timing ~blocks:0 ~pages ~aas ~ready_us)
  end

(* The whole mount — restore, NVRAM replay, cache seeding or full-scan
   rebuild — is one [Mount_rebuild] span. *)
let mount ?lazy_rebuild ?verify ?run image ~with_topaa =
  Telemetry.span_enter Span.Mount_rebuild;
  Fun.protect
    ~finally:(fun () -> Telemetry.span_exit Span.Mount_rebuild)
    (fun () -> mount_body ?lazy_rebuild ?verify ?run image ~with_topaa)
