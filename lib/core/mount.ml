open Wafl_bitmap
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry

(* Per-range persisted cache state.  RAID-aware ranges save one max-heap
   block; object (RAID-agnostic) ranges save the two embedded HBPS pages
   and reload them as HBPS — the variant keeps save and load paired per
   range kind, where the old single-[Bytes.t] slot silently stored an
   HBPS histogram that the heap loader then rejected into a full scan. *)
type range_topaa =
  | Topaa_heap of Pagestore.t
  | Topaa_hbps of Pagestore.t * Pagestore.t

type image = {
  config : Config.t;
  agg_bits : Bitmap.t;
  vol_bits : (string * Bitmap.t) array;
  range_topaa : range_topaa array;        (* one entry per physical range *)
  vol_topaa : (Pagestore.t * Pagestore.t) array;  (* HBPS pages per volume *)
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

let default_cost_model =
  { page_read_us = 250.0; page_scan_cpu_us = 40.0; seed_insert_us = 0.2; replay_op_us = 5.0 }

let snapshot fs =
  let aggregate = Fs.aggregate fs in
  let range_topaa =
    Array.map
      (fun (r : Aggregate.range) ->
        match r.Aggregate.cache with
        | Some cache -> (
          match Cache.backend cache with
          | Cache.Raid_aware heap -> Topaa_heap (Topaa.save_raid_aware heap)
          | Cache.Raid_agnostic hbps ->
            let histogram, list_page = Topaa.save_hbps hbps in
            Topaa_hbps (histogram, list_page))
        | None ->
          (* cache disabled: persist a heap built on the spot, as the real
             system would from its current scores *)
          Topaa_heap (Topaa.save_raid_aware (Max_heap.of_scores r.Aggregate.scores)))
      (Aggregate.ranges aggregate)
  in
  let vol_topaa =
    Array.map
      (fun vol ->
        match Option.map Cache.backend (Flexvol.cache vol) with
        | Some (Cache.Raid_agnostic hbps) -> Topaa.save_hbps hbps
        | Some (Cache.Raid_aware _) | None ->
          let h =
            Hbps.create
              ~max_score:(Topology.full_aa_capacity (Flexvol.topology vol))
              ~scores:(Flexvol.scores vol) ()
          in
          Hbps.replenish h;
          Topaa.save_hbps h)
      (Fs.vols fs)
  in
  {
    config = Fs.config fs;
    agg_bits = Metafile.snapshot (Aggregate.metafile aggregate);
    vol_bits =
      Array.map (fun v -> (Flexvol.name v, Metafile.snapshot (Flexvol.metafile v))) (Fs.vols fs);
    range_topaa;
    vol_topaa;
    nvram = Fs.staged_ops fs;
    namespace =
      Array.map (fun v -> (Flexvol.name v, Flexvol.export_namespace v)) (Fs.vols fs);
  }

let corrupt_block p =
  let i = Pagestore.length_bytes p / 2 in
  Pagestore.set_byte p i (Pagestore.byte p i lxor 0x5a)

let corrupt_range_topaa image i =
  if i < 0 || i >= Array.length image.range_topaa then
    invalid_arg "Mount.corrupt_range_topaa: range index out of range";
  match image.range_topaa.(i) with
  | Topaa_heap page -> corrupt_block page
  | Topaa_hbps (histogram, list_page) ->
    corrupt_block histogram;
    corrupt_block list_page

let corrupt_vol_topaa image i =
  if i < 0 || i >= Array.length image.vol_topaa then
    invalid_arg "Mount.corrupt_vol_topaa: volume index out of range";
  let histogram, list_page = image.vol_topaa.(i) in
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

(* Aggregate ranges overlapping the VBN span one integrity page of the
   activemap store covers: page [p] holds bits [p * 8 * page_size, ...).
   A page straddling a range boundary quarantines every range it
   touches. *)
let ranges_of_page aggregate p =
  let bits_per_page = 8 * Integrity.page_size in
  let vbn0 = p * bits_per_page in
  let vbn1 = min (Aggregate.total_blocks aggregate) ((p + 1) * bits_per_page) - 1 in
  Array.to_list (Aggregate.ranges aggregate)
  |> List.filter (fun (r : Aggregate.range) ->
         r.Aggregate.base <= vbn1 && r.Aggregate.base + r.Aggregate.blocks - 1 >= vbn0)

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
  let bad_ranges =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun p -> ranges_of_page aggregate p) agg_bad
    |> List.filter (fun (r : Aggregate.range) ->
           if Hashtbl.mem seen r.Aggregate.index then false
           else begin
             Hashtbl.add seen r.Aggregate.index ();
             true
           end)
  in
  let bad_vols =
    Array.to_list (Fs.vols fs)
    |> List.filter_map (fun vol ->
           match consider (Metafile.store (Flexvol.metafile vol)) with
           | [] -> None
           | pages -> Some (vol, Metafile.store (Flexvol.metafile vol), pages))
  in
  (!totals, agg_store, agg_bad, bad_ranges, bad_vols)

(* Damage routing: the cost of a verified remount is proportional to the
   damage — only the ranges/volumes a bad page overlaps are rescanned. *)
let quarantine fs ~bad_ranges ~bad_vols =
  let aggregate = Fs.aggregate fs in
  if bad_ranges <> [] then Rebuild.request aggregate (Rebuild.Ranges bad_ranges);
  List.iter (fun (vol, _, _) -> Rebuild.request_vol vol) bad_vols

let emit_verify_telemetry r =
  Telemetry.incr "mount.verified_mounts";
  Telemetry.add "mount.verify_pages" r.pages_verified;
  Telemetry.add "mount.verify_torn" r.torn_pages;
  Telemetry.add "mount.verify_stale" r.stale_pages;
  Telemetry.add "mount.verify_quarantined_ranges" r.ranges_quarantined;
  Telemetry.add "mount.verify_quarantined_vols" r.vols_quarantined

let verify_pagestores fs =
  let totals, agg_store, agg_bad, bad_ranges, bad_vols = classify_stores fs in
  quarantine fs ~bad_ranges ~bad_vols;
  (* The persisted bits are all we have on this path: take them as bitmap
     truth, re-stamp the damaged pages, and let the caller's Iron pass
     settle bitmap-vs-container disagreements under container
     authority. *)
  List.iter (Integrity.reseal_page agg_store) agg_bad;
  List.iter (fun (_, store, pages) -> List.iter (Integrity.reseal_page store) pages) bad_vols;
  let report =
    {
      totals with
      ranges_quarantined = List.length bad_ranges;
      vols_quarantined = List.length bad_vols;
    }
  in
  emit_verify_telemetry report;
  report

(* Restore space state into a fresh system.  The caches Fs.create builds
   assume an empty file system; drop them — the caller installs either
   TopAA seeds or a full-scan rebuild. *)
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
  Aggregate.disable_caches aggregate;
  Array.iter (fun v -> Flexvol.set_cache v None) (Fs.vols fs);
  let vreport =
    match pre with
    | None -> None
    | Some (totals, _, _, bad_ranges, bad_vols) ->
      quarantine fs ~bad_ranges ~bad_vols;
      let r =
        {
          totals with
          ranges_quarantined = List.length bad_ranges;
          vols_quarantined = List.length bad_vols;
        }
      in
      emit_verify_telemetry r;
      Some r
  in
  (fs, vreport)

(* An HBPS cache over [topology] seeded from persisted TopAA pages: each
   listed AA scored at its bin's lower bound, every other AA at zero. *)
let hbps_cache ?space topology seed =
  let approx = Array.make (Topology.aa_count topology) 0 in
  List.iter
    (fun (aa, s) -> if aa < Array.length approx then approx.(aa) <- s)
    (Topaa.seed_scores seed);
  let cache =
    Cache.raid_agnostic ?space ~max_score:(Topology.full_aa_capacity topology) ~scores:approx ()
  in
  (match Cache.backend cache with
  | Cache.Raid_agnostic h -> Hbps.replenish h
  | Cache.Raid_aware _ -> ());
  cache

(* Seed one range cache from its TopAA block.  A corrupt block is detected
   by its checksum; the mount then falls back to scoring that range from
   the bitmaps (the real system would engage WAFL Iron).  Returns
   (seeds inserted, fallback metafile pages scanned). *)
let seed_range_cache aggregate (r : Aggregate.range) block =
  (* Checksum failure engages the bitmap-truth rescore for just this
     range (the real system would hand it to WAFL Iron); the targeted
     rebuild also re-stamps the range fresh, so a lazy mount does not
     rescan it again on first touch. *)
  let fallback () =
    let pages =
      Metafile.scan_read (Aggregate.metafile aggregate) ~start:r.Aggregate.base
        ~len:r.Aggregate.blocks
    in
    Rebuild.request aggregate (Rebuild.Ranges [ r ]);
    (0, pages)
  in
  match block with
  | Topaa_heap page -> (
    match Topaa.load_raid_aware page with
    | Ok seeds ->
      let heap = Max_heap.create ~n_aas:(Topology.aa_count r.Aggregate.topology) in
      List.iter
        (fun (aa, score) -> if not (Max_heap.mem heap aa) then Max_heap.insert heap ~aa ~score)
        seeds;
      r.Aggregate.cache <- Some (Cache.make ~space:r.Aggregate.index (Cache.Raid_aware heap));
      (List.length seeds, 0)
    | Error _ -> fallback ())
  | Topaa_hbps (histogram, list_page) -> (
    match Topaa.load_hbps (histogram, list_page) with
    | Ok seed ->
      r.Aggregate.cache <- Some (hbps_cache ~space:r.Aggregate.index r.Aggregate.topology seed);
      (List.length seed.Topaa.entries, 0)
    | Error _ -> fallback ())

let mount_body ?(cost = default_cost_model) ?(lazy_rebuild = false) ?(verify = false) ?run
    image ~with_topaa =
  let fs, vreport = restore ~verify ?run image in
  (* replay the NVRAM log: the logged client operations are re-staged so
     the first CP commits them (no data loss across the takeover) *)
  List.iter
    (fun (vol_name, file, offset) ->
      Fs.stage_write fs ~vol:(Fs.vol fs vol_name) ~file ~offset)
    image.nvram;
  let replay_us = float_of_int (List.length image.nvram) *. cost.replay_op_us in
  let ops_replayed = List.length image.nvram in
  let aggregate = Fs.aggregate fs in
  let ranges = Aggregate.ranges aggregate in
  (* A lazy mount stamps every range and volume stale before seeding:
     whatever the TopAA pass installs below stays an approximation until
     that range's first touch (pick, harvest, Iron scan, cleaner pass)
     pays its exact rescore.  Fault fallbacks rebuild from the bitmap
     right here and re-stamp themselves fresh under the new epoch. *)
  if lazy_rebuild then begin
    Telemetry.incr "mount.lazy_mounts";
    Aggregate.invalidate_caches aggregate;
    Array.iter Flexvol.invalidate_cache (Fs.vols fs)
  end;
  if with_topaa then begin
    (* Constant work: read one block per range cache + two per volume. *)
    let blocks_read = Array.length ranges + (2 * Array.length image.vol_topaa) in
    let seeds = ref 0 in
    let fallback_pages = ref 0 in
    Array.iteri
      (fun i r ->
        let inserted, scanned = seed_range_cache aggregate r image.range_topaa.(i) in
        seeds := !seeds + inserted;
        fallback_pages := !fallback_pages + scanned)
      ranges;
    Array.iteri
      (fun i vol ->
        match Topaa.load_hbps image.vol_topaa.(i) with
        | Ok seed ->
          Flexvol.set_cache vol (Some (hbps_cache (Flexvol.topology vol) seed));
          seeds := !seeds + List.length seed.Topaa.entries
        | Error _ ->
          (* corrupt volume TopAA: score the volume from its bitmap *)
          fallback_pages :=
            !fallback_pages
            + Metafile.scan_read (Flexvol.metafile vol) ~start:0 ~len:(Flexvol.blocks vol);
          Rebuild.request_vol vol)
      (Fs.vols fs);
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
    ( fs,
      {
        topaa_blocks_read = blocks_read;
        metafile_pages_scanned = !fallback_pages;
        aas_scored = 0;
        ops_replayed;
        ready_us;
        verify = vreport;
      } )
  end
  else if lazy_rebuild then begin
    (* No TopAA and no scan either: the system comes up with no caches at
       all and every range/volume pays its exact rescore on first touch —
       mount-ready time is the NVRAM replay alone, independent of
       aggregate size. *)
    Telemetry.incr "mount.deferred_scan_mounts";
    ( fs,
      {
        topaa_blocks_read = 0;
        metafile_pages_scanned = 0;
        aas_scored = 0;
        ops_replayed;
        ready_us = replay_us;
        verify = vreport;
      } )
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
        (fun acc (r : Aggregate.range) -> acc + Topology.aa_count r.Aggregate.topology)
        0 ranges
      + Array.fold_left
          (fun acc vol -> acc + Topology.aa_count (Flexvol.topology vol))
          0 (Fs.vols fs)
    in
    let pages = agg_pages + vol_pages in
    Telemetry.incr "mount.full_scan_mounts";
    Telemetry.add "mount.scan_pages" pages;
    Telemetry.add "mount.aas_scored" aas;
    (* Each pool domain reads and scores its own disjoint slice of the AA
       range — page reads spread over the RAID group's spindles, scoring
       over the cores — so the linear page term divides by the domain
       count.  Seeding the caches and replaying the log stay serial. *)
    let jobs = float_of_int (Wafl_par.Par.jobs (Aggregate.pool aggregate)) in
    let ready_us =
      (float_of_int pages *. (cost.page_read_us +. cost.page_scan_cpu_us) /. jobs)
      +. (float_of_int aas *. cost.seed_insert_us)
      +. replay_us
    in
    ( fs,
      {
        topaa_blocks_read = 0;
        metafile_pages_scanned = pages;
        aas_scored = aas;
        ops_replayed;
        ready_us;
        verify = vreport;
      } )
  end

(* The whole mount — restore, NVRAM replay, cache seeding or full-scan
   rebuild — is one [Mount_rebuild] span. *)
let mount ?cost ?lazy_rebuild ?verify ?run image ~with_topaa =
  Telemetry.span_enter Span.Mount_rebuild;
  Fun.protect
    ~finally:(fun () -> Telemetry.span_exit Span.Mount_rebuild)
    (fun () ->
      mount_body ?cost ?lazy_rebuild ?verify ?run image ~with_topaa)
