open Wafl_raid
open Wafl_device
open Wafl_aacache
open Wafl_telemetry

type batch = {
  mutable vol : int array;
  mutable file : int array;
  mutable offset : int array;
  mutable len : int;
}

type device_report = {
  range_index : int;
  media : string;
  blocks_written : int;
  chains : int;
  full_stripes : int;
  partial_stripes : int;
  tetrises : int;
  parity_writes : int;
  parity_reads : int;
  device_time_us : float;
  ssd_stats : Ftl.stats option;
  ssd_stream_stats : Ftl.stats array;
  smr_random_checksum_writes : int;
  fault : Wafl_fault.Fault.io_stats option;
}

type report = {
  ops : int;
  blocks_allocated : int;
  pvbns_freed : int;
  vvbns_freed : int;
  agg_metafile_pages : int;
  vol_metafile_pages : int;
  devices : device_report list;
  device_time_us : float;
  cache_work : int;
  alloc_candidates : int;
  fault_totals : Wafl_fault.Fault.io_stats option;
  picks : int;
  replenishes : int;
  hbps_score_error_max : float;
  search_ns : int;
  wall_ns : int;
}

let empty_report =
  {
    ops = 0;
    blocks_allocated = 0;
    pvbns_freed = 0;
    vvbns_freed = 0;
    agg_metafile_pages = 0;
    vol_metafile_pages = 0;
    devices = [];
    device_time_us = 0.0;
    cache_work = 0;
    alloc_candidates = 0;
    fault_totals = None;
    picks = 0;
    replenishes = 0;
    hbps_score_error_max = 0.0;
    search_ns = 0;
    wall_ns = 0;
  }

(* An SMR range's device space: each data device's span, rounded to
   whole AZCS regions so device boundaries never split a region (the
   tracker's region math is global). *)
let smr_device_span geometry =
  Wafl_util.Bitops.round_up
    (Azcs.device_span_of_data (Geometry.device_blocks geometry))
    Azcs.region_blocks

(* One CP's per-block working arrays.  Each grows by doubling to the
   largest CP seen and is reused by every later CP, so a CP allocates
   O(volumes + ranges) words, not O(blocks): a per-CP array over 256
   words would go straight to the major heap.  One record for the
   process (below), not per system: a mount-heavy run builds two systems
   per failover cycle, and per-system scratch would keep each one's
   high-water arrays alive while it lives. *)
type scratch = {
  mutable keys : int array;  (* sort key per index: volume rank, or range *)
  mutable order : int array;  (* batch indices grouped by volume, stably *)
  mutable vvbns : int array;  (* one volume's allocated VVBNs *)
  mutable slots : Bytes.t;  (* one volume's class slot per write *)
  mutable files : int array;  (* one class batch's files, in write order *)
  mutable offsets : int array;  (* ... their offsets *)
  mutable cls_vvbns : int array;  (* ... their reserved VVBNs *)
  mutable pvbns : int array;  (* ... and their allocated PVBNs *)
  mutable old_vvbns : int array;  (* the VVBNs they replace, -1 if none *)
  mutable old_pvbns : int array;  (* ... and those VVBNs' PVBNs *)
  mutable placed : int array;  (* every placed PVBN, in allocation order *)
  mutable placed_cls : int array;  (* ... and its class *)
  mutable locals : int array;  (* placed PVBNs by range, range-local *)
  mutable local_cls : int array;  (* ... and their classes *)
  mutable sorted : int array;  (* each range's slice of [locals], sorted, distinct *)
  mutable sorted_cls : int array;  (* ... and their classes *)
  mutable stream : int array;  (* per-stream batches, within a range's slice *)
  mutable freed_locals : int array;  (* freed PVBNs by range, range-local *)
}

let scratch =
  {
    keys = [||];
    order = [||];
    vvbns = [||];
    slots = Bytes.empty;
    files = [||];
    offsets = [||];
    cls_vvbns = [||];
    pvbns = [||];
    old_vvbns = [||];
    old_pvbns = [||];
    placed = [||];
    placed_cls = [||];
    locals = [||];
    local_cls = [||];
    sorted = [||];
    sorted_cls = [||];
    stream = [||];
    freed_locals = [||];
  }

(* [a] when it holds [n] slots, else a fresh array of at least twice its
   size; contents are not kept. *)
let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* Stable counting sort of the indices [0 .. n-1] into [buckets] buckets
   by [keys.(k)]: [emit k j] receives each index [k] with its destination
   slot [j] (bucket by bucket, in index order within a bucket).  Returns
   the [buckets + 1] bucket starts: bucket [b] fills slots
   [starts.(b) .. starts.(b+1)-1]. *)
let counting_sort keys n ~buckets ~emit =
  let starts = Array.make (buckets + 1) 0 in
  for k = 0 to n - 1 do
    starts.(keys.(k) + 1) <- starts.(keys.(k) + 1) + 1
  done;
  for b = 1 to buckets do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  let next = Array.sub starts 0 buckets in
  for k = 0 to n - 1 do
    let b = keys.(k) in
    emit k next.(b);
    next.(b) <- next.(b) + 1
  done;
  starts

(* A block's class rides in the low bits of its sort key: at most 4
   classes, as a write's one-byte class slot in [run] assumes. *)
let cls_bits = 2

(* The one sort of a range's writes per CP: [locals.(pos .. pos+len-1)]
   with their classes into [sorted] and [sorted_cls] at the same offset,
   ascending and duplicate-free.  One sort of [local lsl cls_bits lor
   class] keys, then a decode pass that keeps each VBN's first key.
   Returns the distinct count.  The RAID group and the FTL read this
   slice; the HDD fault plane, SMR and object ranges read [locals] in
   allocation order. *)
let sort_writes sc ~pos ~len =
  let locals = sc.locals and local_cls = sc.local_cls in
  let sorted = sc.sorted and sorted_cls = sc.sorted_cls in
  for k = pos to pos + len - 1 do
    sorted.(k) <- (locals.(k) lsl cls_bits) lor local_cls.(k)
  done;
  Wafl_util.Int_sort.sort ~pos sorted ~len;
  let m = ref pos and prev = ref (-1) in
  for k = pos to pos + len - 1 do
    let key = sorted.(k) in
    let local = key lsr cls_bits in
    if local <> !prev then begin
      sorted.(!m) <- local;
      sorted_cls.(!m) <- key land ((1 lsl cls_bits) - 1);
      prev := local;
      incr m
    end
  done;
  !m - pos

let flush_range_body (range : Aggregate.range) sc ~pos ~len ~fpos ~flen =
  let locals = sc.locals in
  (* An object range has no RAID group and no FTL to read a sorted
     slice; every other range sorts its writes once. *)
  let distinct =
    match range.Aggregate.device with
    | Aggregate.Object_sim _ -> 0
    | _ -> sort_writes sc ~pos ~len
  in
  let flush =
    match range.Aggregate.group with
    | Some group ->
      Telemetry.span_enter Span.Tetris_write;
      let f = Group.record_flush group ~vbns:sc.sorted ~pos ~len:distinct in
      Telemetry.span_exit Span.Tetris_write;
      Some f
    | None -> None
  in
  let media =
    match range.Aggregate.media with
    | Some m -> Config.media_name m
    | None -> "object"
  in
  let chains, full_stripes, partial_stripes, tetrises, parity_writes, parity_reads =
    match flush with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some f ->
      let c = f.Group.classification in
      ( f.Group.chains,
        c.Stripe.full_stripes,
        c.Stripe.partial_stripes,
        f.Group.tetris.Tetris.tetrises,
        c.Stripe.parity_writes,
        c.Stripe.extra_reads )
  in
  if len > 0 && flush <> None then
    Telemetry.trace_tetris_write ~space:range.Aggregate.index ~tetrises ~full_stripes
      ~partial_stripes;
  let fault_before =
    match range.Aggregate.fault with
    | Some dev -> Wafl_fault.Fault.stats dev
    | None -> Wafl_fault.Fault.zero_stats
  in
  let ssd_stats = ref None and ssd_stream_stats = ref [||] and random_cs = ref 0 in
  let device_time_us =
    match range.Aggregate.device with
    | Aggregate.Hdd_sim profile ->
      (* One positioning per chain; stream data + parity; parity reads for
         partial stripes are random I/Os.  The fault plane is consulted per
         data block inside the cost model (HDD sims are stateless). *)
      let write_time =
        Hdd.faulty_write_cost_us range.Aggregate.fault profile
          ~chains:(chains + partial_stripes) ~locals ~pos ~len ~parity_writes
      in
      write_time +. Hdd.random_read_cost_us profile ~ios:parity_reads
    | Aggregate.Ssd_sim ftl ->
      let ns = Ftl.streams ftl in
      let sbefore = Array.init ns (Ftl.stream_stats ftl) in
      (* Each temperature class's batch goes to its own FTL write stream
         (classes beyond the drive's stream count share the last one), so
         segregated AAs also stop sharing open erase blocks inside the
         device.  The FTL reads the sorted slice: a stream that takes
         every block writes it as is; otherwise its blocks are filtered,
         in order (so still sorted), into the stream array at the slice's
         own positions, so the FTL reads them with the slice's [pos]. *)
      let sorted = sc.sorted and classes = sc.sorted_cls and stream = sc.stream in
      let len = distinct in
      let stream_of c = if c < ns then c else ns - 1 in
      let counts = Array.make ns 0 in
      for k = pos to pos + len - 1 do
        let s = stream_of classes.(k) in
        counts.(s) <- counts.(s) + 1
      done;
      Array.iteri
        (fun s count ->
          if count = len then Ftl.write_batch ~stream:s ftl sorted ~pos ~len
          else if count > 0 then begin
            let m = ref pos in
            for k = pos to pos + len - 1 do
              if stream_of classes.(k) = s then begin
                stream.(!m) <- sorted.(k);
                incr m
              end
            done;
            Ftl.write_batch ~stream:s ftl stream ~pos ~len:count
          end)
        counts;
      let trimmed_pages = Ftl.trim_batch ftl sc.freed_locals ~pos:fpos ~len:flen in
      let sdelta =
        Array.init ns (fun s ->
            Ftl.diff_stats ~after:(Ftl.stream_stats ftl s) ~before:sbefore.(s))
      in
      let delta = Ftl.sum_stats sdelta ~trimmed_pages in
      ssd_stats := Some delta;
      ssd_stream_stats := sdelta;
      Ftl.service_time_us ftl ~stats_delta:delta
    | Aggregate.Smr_sim (smr, trackers) -> (
      match range.Aggregate.geometry with
      | None -> 0.0
      | Some geometry ->
        let before = Smr.stats smr in
        (* Per-device write streams: the slice grouped by data device,
           devices ascending, each in allocation order (the allocator
           finishes one AA before starting the next, and sorting would
           interleave them).  A data DBN lands at its AZCS device position
           (checksum blocks interleaved), offset into the device's span so
           zone arithmetic stays per-device. *)
        let keys = sc.keys and stream = sc.stream in
        let device_blocks = Geometry.device_blocks geometry in
        for k = 0 to len - 1 do
          keys.(k) <- locals.(pos + k) / device_blocks
        done;
        let span = smr_device_span geometry in
        let devices = Geometry.data_devices geometry in
        let starts =
          counting_sort keys len ~buckets:devices ~emit:(fun k j ->
              let dbn = Geometry.stripe_of_vbn geometry locals.(pos + k) in
              stream.(pos + j) <- (keys.(k) * span) + Azcs.device_position_of_data dbn)
        in
        for device = 0 to devices - 1 do
          let tracker = trackers.(device) in
          for j = pos + starts.(device) to pos + starts.(device + 1) - 1 do
            let dev_pos = stream.(j) in
            (* Region closes are written before the data block that
               triggered them, so a sequential close lands exactly in
               stream order. *)
            List.iter
              (fun cw ->
                Smr.write smr cw.Azcs.block;
                if not cw.Azcs.sequential then incr random_cs)
              (Azcs.write tracker dev_pos);
            Smr.write smr dev_pos
          done
        done;
        (Smr.stats smr).Smr.total_us -. before.Smr.total_us)
    | Aggregate.Object_sim store ->
      let before = Object_store.stats store in
      Object_store.write_batch store locals ~pos ~len;
      let delta = Object_store.diff_stats ~after:(Object_store.stats store) ~before in
      Object_store.cost_us store ~stats_delta:delta
  in
  let fault =
    match range.Aggregate.fault with
    | None -> None
    | Some dev ->
      let fs =
        Wafl_fault.Fault.diff_stats ~before:fault_before ~after:(Wafl_fault.Fault.stats dev)
      in
      if fs.Wafl_fault.Fault.injected_transient + fs.Wafl_fault.Fault.torn
         + fs.Wafl_fault.Fault.failed + fs.Wafl_fault.Fault.spikes > 0
      then
        Telemetry.trace_fault_inject ~space:range.Aggregate.index
          ~transients:fs.Wafl_fault.Fault.injected_transient ~torn:fs.Wafl_fault.Fault.torn
          ~failed:fs.Wafl_fault.Fault.failed ~spikes:fs.Wafl_fault.Fault.spikes;
      if fs.Wafl_fault.Fault.retries > 0 then
        Telemetry.trace_io_retry ~space:range.Aggregate.index
          ~retries:fs.Wafl_fault.Fault.retries ~ok:fs.Wafl_fault.Fault.retries_ok;
      Some fs
  in
  {
    range_index = range.Aggregate.index;
    media;
    blocks_written = len;
    chains;
    full_stripes;
    partial_stripes;
    tetrises;
    parity_writes;
    parity_reads;
    (* retry backoff and latency spikes stall this range's flush *)
    device_time_us =
      (match fault with
      | Some fs -> device_time_us +. fs.Wafl_fault.Fault.penalty_us
      | None -> device_time_us);
    ssd_stats = !ssd_stats;
    ssd_stream_stats = !ssd_stream_stats;
    smr_random_checksum_writes = !random_cs;
    fault;
  }

(* One [Device_flush] span per range.  The [Fun.protect] closure is
   per-range-per-CP — off the hot path. *)
let flush_range range sc ~pos ~len ~fpos ~flen =
  Telemetry.span_enter Span.Device_flush;
  Fun.protect
    ~finally:(fun () -> Telemetry.span_exit Span.Device_flush)
    (fun () -> flush_range_body range sc ~pos ~len ~fpos ~flen)

(* Aggregate cache stats over the physical ranges and this CP's active
   volumes: (picks, replenishes, work, worst HBPS score error). *)
let cache_totals ranges vols =
  let picks = ref 0 and repl = ref 0 and work = ref 0 and err = ref 0.0 in
  let tally = function
    | None -> ()
    | Some c ->
      let s = Cache.stats c in
      picks := !picks + s.Cache.picks;
      repl := !repl + s.Cache.replenishes;
      work := !work + s.Cache.work;
      err := Float.max !err s.Cache.score_error_max
  in
  Array.iter (fun (r : Aggregate.range) -> tally r.Aggregate.space.Space.cache) ranges;
  Array.iter (fun vol -> tally (Flexvol.space vol).Space.cache) vols;
  (!picks, !repl, !work, !err)

(* Aggregate state read once per sampled time-series row: the free-run
   scan, the AA-score deciles, SSD write amplification and wear, the scrub
   counters and the modeled latency quantiles.  Built only when telemetry
   is installed. *)
type view = {
  cp_index : int;
  ring_high_water : float;
  free : int;
  total : int;
  free_runs : int;
  largest_run : int;
  deciles : float array;  (* d1..d9 *)
  scrub_pages : int;
  scrub_bad : int;
  ssd_wa : float;
  ssd_wear : int;
  lat : float array array;  (* [|p50; p99; p999|]: overall, then volume slots 0..3 *)
}

let view tel aggregate =
  let reg = Telemetry.registry tel in
  let ranges = Aggregate.ranges aggregate in
  let free_runs, largest_run = Aggregate.free_run_stats aggregate in
  let scores =
    Array.concat
      (Array.to_list
         (Array.map (fun (r : Aggregate.range) -> r.Aggregate.space.Space.scores) ranges))
  in
  Array.sort Int.compare scores;
  let n = Array.length scores in
  let ssd_host = ref 0 and ssd_dev = ref 0 and ssd_wear = ref 0 in
  Array.iter
    (fun (r : Aggregate.range) ->
      match r.Aggregate.device with
      | Aggregate.Ssd_sim ftl ->
        let s = Ftl.stats ftl in
        ssd_host := !ssd_host + s.Ftl.host_pages_written;
        ssd_dev := !ssd_dev + s.Ftl.device_pages_written;
        ssd_wear := max !ssd_wear (snd (Ftl.wear_spread ftl))
      | _ -> ())
    ranges;
  let ring_high_water = Registry.value (Registry.gauge reg "write_alloc.ring_high_water") in
  let scrub_bad = Registry.count (Registry.counter reg "scrub.bad_pages") in
  let scrub_pages = Registry.count (Registry.counter reg "scrub.pages_verified") in
  {
    cp_index = Tracer.current_cp (Telemetry.tracer tel);
    ring_high_water;
    free = Aggregate.free_blocks aggregate;
    total = Aggregate.total_blocks aggregate;
    free_runs;
    largest_run;
    deciles =
      Array.init 9 (fun k -> if n = 0 then 0.0 else float_of_int scores.((k + 1) * (n - 1) / 10));
    scrub_pages;
    scrub_bad;
    ssd_wa = (if !ssd_host = 0 then 1.0 else float_of_int !ssd_dev /. float_of_int !ssd_host);
    ssd_wear = !ssd_wear;
    lat =
      Array.init 5 (fun i ->
          let p50, p99, p999 = Telemetry.lat_quantiles_ms ~vol:(i - 1) in
          [| p50; p99; p999 |]);
  }

(* This CP's FTL relocations on write stream [s] over every SSD range;
   streams beyond 3 fold into the s3 column. *)
let stream_relocations r s =
  List.fold_left
    (fun acc (d : device_report) ->
      let sum = ref acc in
      Array.iteri
        (fun i (st : Ftl.stats) -> if min i 3 = s then sum := !sum + st.Ftl.relocated_pages)
        d.ssd_stream_stats;
      !sum)
    0 r.devices

type column = {
  name : string;
  unit : string;
  kind : Timeseries.kind;
  get : report -> view -> float;
}

(* The per-CP time series: the paper's time-resolved axes (search cost per
   block, AA score distribution, HBPS error bound, free-space
   fragmentation) plus allocator, fault, SSD and modeled-latency health,
   then the remaining report fields.  Columns are only ever appended. *)
let table =
  let fl = float_of_int in
  let rep name unit kind f = { name; unit; kind; get = (fun r _ -> f r) } in
  let agg name unit kind f = { name; unit; kind; get = (fun _ v -> f v) } in
  let count name unit f = rep name unit Timeseries.Count (fun r -> fl (f r)) in
  let fault name unit (f : Wafl_fault.Fault.io_stats -> int) =
    count name unit (fun r -> match r.fault_totals with None -> 0 | Some fs -> f fs)
  in
  let lat prefix i =
    List.mapi
      (fun j q -> agg (Printf.sprintf "%s_%s_ms" prefix q) "ms" Modeled (fun v -> v.lat.(i).(j)))
      [ "p50"; "p99"; "p999" ]
  in
  [
    agg "cp" "index" Count (fun v -> fl v.cp_index);
    count "ops" "ops" (fun r -> r.ops);
    count "blocks_allocated" "blocks" (fun r -> r.blocks_allocated);
    count "pvbns_freed" "blocks" (fun r -> r.pvbns_freed);
    count "picks" "picks" (fun r -> r.picks);
    count "replenishes" "replenishes" (fun r -> r.replenishes);
    rep "search_ns_per_block" "ns/block" Measured (fun r ->
        fl r.search_ns /. fl (max 1 r.blocks_allocated));
    rep "cp_wall_ns" "ns" Measured (fun r -> fl r.wall_ns);
    rep "hbps_score_error_max" "fraction" Count (fun r -> r.hbps_score_error_max);
  ]
  @ List.init 9 (fun k ->
        agg (Printf.sprintf "aa_score_d%d" (k + 1)) "blocks" Count (fun v -> v.deciles.(k)))
  @ [
      agg "free_blocks" "blocks" Count (fun v -> fl v.free);
      agg "free_frac" "fraction" Count (fun v -> fl v.free /. fl v.total);
      agg "free_runs" "runs" Count (fun v -> fl v.free_runs);
      agg "largest_free_run" "blocks" Count (fun v -> fl v.largest_run);
      (* 0.0 = one contiguous free run, -> 1.0 as free space shatters *)
      agg "frag" "fraction" Count (fun v ->
          if v.free = 0 then 0.0 else 1.0 -. (fl v.largest_run /. fl v.free));
      agg "ring_high_water" "blocks" Count (fun v -> v.ring_high_water);
      rep "device_us" "us" Modeled (fun r -> r.device_time_us);
      fault "fault_transients" "bursts" (fun fs -> fs.injected_transient);
      fault "fault_torn" "writes" (fun fs -> fs.torn);
      fault "fault_failed" "writes" (fun fs -> fs.failed);
      fault "fault_retries" "retries" (fun fs -> fs.retries);
      agg "scrub_pages" "pages" Count (fun v -> fl v.scrub_pages);
      agg "scrub_bad" "pages" Count (fun v -> fl v.scrub_bad);
      agg "ssd_wa" "ratio" Count (fun v -> v.ssd_wa);
    ]
  @ List.init 4 (fun s ->
        count (Printf.sprintf "ssd_reloc_s%d" s) "pages" (fun r -> stream_relocations r s))
  @ [ agg "ssd_max_wear" "erases" Count (fun v -> fl v.ssd_wear) ]
  @ lat "lat" 0
  @ List.concat (List.init 4 (fun i -> lat (Printf.sprintf "lat_v%d" i) (i + 1)))
  @ [
      count "vvbns_freed" "blocks" (fun r -> r.vvbns_freed);
      count "agg_metafile_pages" "pages" (fun r -> r.agg_metafile_pages);
      count "vol_metafile_pages" "pages" (fun r -> r.vol_metafile_pages);
      count "cache_work" "work units" (fun r -> r.cache_work);
      count "alloc_candidates" "positions" (fun r -> r.alloc_candidates);
      fault "fault_retries_ok" "bursts" (fun fs -> fs.retries_ok);
      rep "fault_penalty_us" "us" Modeled (fun r ->
          match r.fault_totals with None -> 0.0 | Some fs -> fs.Wafl_fault.Fault.penalty_us);
    ]

let columns = List.map (fun c -> { Timeseries.name = c.name; unit = c.unit; kind = c.kind }) table

(* Every per-CP surface is a projection of the report: the counters here
   and, when telemetry is installed, one time-series row. *)
let publish aggregate report =
  Telemetry.incr "cp.count";
  Telemetry.add "cp.ops" report.ops;
  Telemetry.add "cp.blocks_allocated" report.blocks_allocated;
  Telemetry.add "cp.pvbns_freed" report.pvbns_freed;
  Telemetry.add "cp.vvbns_freed" report.vvbns_freed;
  Telemetry.add "metafile.agg_pages_written" report.agg_metafile_pages;
  Telemetry.add "metafile.vol_pages_written" report.vol_metafile_pages;
  Telemetry.add "cache.picks" report.picks;
  Telemetry.add "cache.replenishes" report.replenishes;
  Telemetry.add "cache.work" report.cache_work;
  Telemetry.add "alloc.candidates_scanned" report.alloc_candidates;
  Telemetry.max_gauge "cache.hbps.score_error_max" report.hbps_score_error_max;
  Telemetry.sample ~columns (fun tel ->
      let v = view tel aggregate in
      Array.of_list (List.map (fun c -> c.get report v) table))

(* Split [n] PVBNs, [src.(0 .. n-1)], by aggregate range into [dst] in
   range-local coordinates, keeping their order within a range; [cls],
   when given, is carried along from the first array of the pair into
   the second.  Returns the range starts ({!counting_sort}'s). *)
let split_by_range ?cls aggregate sc ~src n ~dst =
  let ranges = Aggregate.ranges aggregate in
  sc.keys <- grow sc.keys n;
  let keys = sc.keys in
  for k = 0 to n - 1 do
    keys.(k) <- (Aggregate.range_of_pvbn aggregate src.(k)).Aggregate.index
  done;
  counting_sort keys n ~buckets:(Array.length ranges) ~emit:(fun k j ->
      dst.(j) <- Aggregate.to_local ranges.(keys.(k)) src.(k);
      match cls with Some (c, d) -> d.(j) <- c.(k) | None -> ())

let run_body ?temp walloc vols batch =
  let cp_t0 = Telemetry.now_ns () in
  let pick_ns0 = Telemetry.span_total_ns Span.Pick in
  let harvest_ns0 = Telemetry.span_total_ns Span.Harvest in
  let aggregate = Write_alloc.aggregate walloc in
  let sc = scratch in
  let ops = batch.len in
  Telemetry.span_enter Span.Place;
  (* Group the writes by volume, volumes in first-appearance order and
     writes in staging order within each: rank the volumes, then a
     stable counting sort of the batch indices into [order]. *)
  let rank = Array.make (Array.length vols) (-1) in
  let by_rank = Array.make (Array.length vols) 0 in
  let n_active = ref 0 in
  sc.keys <- grow sc.keys ops;
  let keys = sc.keys in
  for k = 0 to ops - 1 do
    let v = batch.vol.(k) in
    if rank.(v) < 0 then begin
      rank.(v) <- !n_active;
      by_rank.(!n_active) <- v;
      incr n_active
    end;
    keys.(k) <- rank.(v)
  done;
  let n_active = !n_active in
  let active = Array.init n_active (fun r -> vols.(by_rank.(r))) in
  sc.order <- grow sc.order ops;
  let order = sc.order in
  let group_start = counting_sort keys ops ~buckets:n_active ~emit:(fun k j -> order.(j) <- k) in
  let ranges = Aggregate.ranges aggregate in
  let picks_before, replenishes_before, cache_work_before, _ = cache_totals ranges active in
  let candidates_before = Write_alloc.candidates_scanned walloc in
  (* 1. Allocate virtual VBNs per volume and physical VBNs across ranges;
        update inodes and container maps; queue COW frees. *)
  let placed = ref 0 in
  let vvbn_frees = ref 0 in
  (* Request-latency accounting: per-volume (slot, fresh, overwrite)
     placement counts, gathered only when a latency recorder is live. *)
  let lat_on = Telemetry.lat_active () in
  let lat_groups = ref [] in
  (* Every placed block carries its temperature class; without temperature
     tracking there is one class.  Each class batch's PVBNs are appended
     to [placed] with their class, so in order they list every placed
     PVBN in allocation order. *)
  let classes = match temp with Some tm -> Temperature.classes tm | None -> 1 in
  sc.placed <- grow sc.placed ops;
  sc.placed_cls <- grow sc.placed_cls ops;
  for r = 0 to n_active - 1 do
    Wafl_fault.Crash.point "cp.place_vol";
    let vol = active.(r) in
    let base = group_start.(r) in
    let n = group_start.(r + 1) - base in
    sc.vvbns <- grow sc.vvbns n;
    let vvbns = sc.vvbns in
    (* a write's class slot (at most 4 classes), a byte each *)
    if Bytes.length sc.slots < n then sc.slots <- Bytes.create (max n (2 * Bytes.length sc.slots));
    let slots = sc.slots in
    Bytes.fill slots 0 n '\000';
    let got_v = Write_alloc.allocate_vvbns_into walloc by_rank.(r) ~dst:vvbns n in
    let lat_fresh = ref 0 and lat_over = ref 0 in
    (* SepBIT-style segregation: each write with a vvbn takes the class
       of the lifespan of the version it kills, read before any of this
       CP's placements mutate the file maps. *)
    (match temp with
    | None -> ()
    | Some tm ->
      let uid = Flexvol.uid vol and vblocks = Flexvol.blocks vol in
      for k = 0 to got_v - 1 do
        let w = order.(base + k) in
        let file = batch.file.(w) in
        let prev = Flexvol.read_file vol ~file ~offset:batch.offset.(w) in
        Bytes.set slots k
          (Char.chr
             (Temperature.slot_of tm (Temperature.classify tm ~uid ~blocks:vblocks ~file ~prev)))
      done);
    (* Allocate and place class by class, in write order within each
       class, through the class's own Write_alloc cursor row so classes
       land in different AAs: gather the class's writes, allocate their
       PVBNs, place them ({!Flexvol.place}).  Reserved virtual blocks with
       no physical home (aggregate out of space) are handed back after
       the class's placements. *)
    sc.files <- grow sc.files got_v;
    sc.offsets <- grow sc.offsets got_v;
    sc.cls_vvbns <- grow sc.cls_vvbns got_v;
    sc.pvbns <- grow sc.pvbns got_v;
    sc.old_vvbns <- grow sc.old_vvbns got_v;
    sc.old_pvbns <- grow sc.old_pvbns got_v;
    let files = sc.files and offsets = sc.offsets and cls_vvbns = sc.cls_vvbns in
    let pvbns = sc.pvbns and old_vvbns = sc.old_vvbns and old_pvbns = sc.old_pvbns in
    for c = 0 to classes - 1 do
      let bn = ref 0 in
      for k = 0 to got_v - 1 do
        if Char.code (Bytes.get slots k) = c then begin
          let w = order.(base + k) in
          files.(!bn) <- batch.file.(w);
          offsets.(!bn) <- batch.offset.(w);
          cls_vvbns.(!bn) <- vvbns.(k);
          incr bn
        end
      done;
      let bn = !bn in
      if bn > 0 then begin
        let got_p = Write_alloc.allocate_pvbns_into ~cls:c walloc ~dst:pvbns bn in
        Array.blit pvbns 0 sc.placed !placed got_p;
        Array.fill sc.placed_cls !placed got_p c;
        let fresh, freed =
          Flexvol.place vol aggregate ?temp ~files ~offsets ~vvbns:cls_vvbns ~pvbns ~old_vvbns
            ~old_pvbns got_p
        in
        lat_fresh := !lat_fresh + fresh;
        lat_over := !lat_over + got_p - fresh;
        vvbn_frees := !vvbn_frees + freed;
        for i = got_p to bn - 1 do
          Flexvol.release_reserved vol ~vvbn:cls_vvbns.(i)
        done;
        placed := !placed + got_p
      end
    done;
    if lat_on && !lat_fresh + !lat_over > 0 then
      lat_groups :=
        ( Telemetry.lat_vol_slot ~uid:(Flexvol.uid vol) ~name:(Flexvol.name vol),
          !lat_fresh,
          !lat_over )
        :: !lat_groups
  done;
  Telemetry.span_exit Span.Place;
  (* 2. Commit delayed frees (aggregate + volumes) and flush metafiles. *)
  Telemetry.span_enter Span.Activemap_commit;
  Wafl_fault.Crash.point "cp.agg_free_commit";
  let agg_commit = Aggregate.commit_frees aggregate in
  let agg_pages = agg_commit.Wafl_bitmap.Activemap.pages_written in
  let n_freed = agg_commit.Wafl_bitmap.Activemap.freed in
  let commit acc vol =
    Wafl_fault.Crash.point "cp.vol_free_commit";
    acc + Flexvol.commit_frees vol
  in
  (* Then every volume that still holds queued frees: one this CP did not
     write, whose frees a snapshot delete queued. *)
  let vol_pages =
    Array.fold_left
      (fun acc vol ->
        if Wafl_bitmap.Activemap.pending_free_count (Flexvol.activemap vol) > 0 then
          commit acc vol
        else acc)
      (Array.fold_left commit 0 active)
      vols
  in
  Telemetry.span_exit Span.Activemap_commit;
  (* 3. Device I/O per range: this CP's allocations (and trims) split by
        range, in range-local coordinates, each range a slice. *)
  let n_ranges = Array.length ranges in
  sc.locals <- grow sc.locals !placed;
  sc.local_cls <- grow sc.local_cls !placed;
  sc.stream <- grow sc.stream !placed;
  sc.sorted <- grow sc.sorted !placed;
  sc.sorted_cls <- grow sc.sorted_cls !placed;
  let starts =
    split_by_range ~cls:(sc.placed_cls, sc.local_cls) aggregate sc ~src:sc.placed !placed
      ~dst:sc.locals
  in
  sc.freed_locals <- grow sc.freed_locals n_freed;
  let fstarts =
    split_by_range aggregate sc
      ~src:(Wafl_bitmap.Activemap.freed (Aggregate.activemap aggregate))
      n_freed ~dst:sc.freed_locals
  in
  let devices =
    List.init n_ranges (fun i ->
        Wafl_fault.Crash.point "cp.device_flush";
        flush_range ranges.(i) sc ~pos:starts.(i) ~len:(starts.(i + 1) - starts.(i))
          ~fpos:fstarts.(i) ~flen:(fstarts.(i + 1) - fstarts.(i)))
  in
  (* 4. CP boundary: batched score updates, cache rebalance. *)
  Wafl_fault.Crash.point "cp.score_refile";
  Telemetry.span_enter Span.Refile;
  Write_alloc.cp_finish walloc;
  Telemetry.span_exit Span.Refile;
  Wafl_fault.Crash.point "cp.topaa_write";
  (* Persist the integrity sidecars for every page sealed this CP and
     advance the committed generation — the durable close of the CP when
     the pagestores are file-mapped (a no-op otherwise). *)
  Wafl_bitmap.Integrity.cp_commit ();
  let picks_after, replenishes_after, cache_work_after, score_error_max =
    cache_totals ranges active
  in
  let device_time_us =
    List.fold_left
      (fun acc (d : device_report) -> Float.max acc d.device_time_us)
      0.0 devices
  in
  let fault_totals =
    List.fold_left
      (fun acc (d : device_report) ->
        match (acc, d.fault) with
        | _, None -> acc
        | None, fs -> fs
        | Some t, Some fs -> Some (Wafl_fault.Fault.add_stats t fs))
      None devices
  in
  let pick_ns = Telemetry.span_total_ns Span.Pick - pick_ns0 in
  let harvest_ns = Telemetry.span_total_ns Span.Harvest - harvest_ns0 in
  let report =
    {
      ops;
      blocks_allocated = !placed;
      pvbns_freed = n_freed;
      vvbns_freed = !vvbn_frees;
      agg_metafile_pages = agg_pages;
      vol_metafile_pages = vol_pages;
      devices;
      device_time_us;
      cache_work = cache_work_after - cache_work_before;
      alloc_candidates = Write_alloc.candidates_scanned walloc - candidates_before;
      fault_totals;
      picks = picks_after - picks_before;
      replenishes = replenishes_after - replenishes_before;
      hbps_score_error_max = score_error_max;
      search_ns = pick_ns + harvest_ns;
      wall_ns = Telemetry.now_ns () - cp_t0;
    }
  in
  (* 5. Telemetry.  Assign modeled latencies to this CP's ops first, so the
     time-series row reads quantiles that include this CP.  device_time_us
     already carries the injected spike penalty; spike_us is passed
     separately so exemplar blame can tell a faulted flush from a merely
     slow one. *)
  if lat_on then
    Telemetry.lat_cp_record
      ~groups:(List.rev !lat_groups)
      ~pages:(agg_pages + vol_pages)
      ~cache_work:report.cache_work
      ~candidates:report.alloc_candidates
      ~device_us:device_time_us
      ~spike_us:
        (match fault_totals with
        | Some fs -> fs.Wafl_fault.Fault.penalty_us
        | None -> 0.0)
      ~pick_ns ~harvest_ns;
  Telemetry.span_enter Span.Publish;
  publish aggregate report;
  Telemetry.span_exit Span.Publish;
  (* Tick the temperature clock after the CP's placements: lifespans are
     measured in whole CPs between a birth and the overwrite killing it. *)
  (match temp with Some tm -> Temperature.advance_cp tm | None -> ());
  report

let run ?temp walloc vols batch =
  Telemetry.trace_cp_begin ();
  Telemetry.span_enter Span.Cp;
  match run_body ?temp walloc vols batch with
  | report ->
    Telemetry.span_exit Span.Cp;
    report
  | exception e ->
    (* A crash point (or a failed check) unwinding the CP: close every
       span the body enters, so none stays open across the remount.  An
       exit of a span that is not open is ignored, and each range's
       device-flush span closes itself. *)
    Telemetry.span_exit Span.Place;
    Telemetry.span_exit Span.Activemap_commit;
    Telemetry.span_exit Span.Refile;
    Telemetry.span_exit Span.Publish;
    Telemetry.span_exit Span.Cp;
    raise e
