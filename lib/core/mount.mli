(** Mount path: AA-cache (re)construction after a reboot or failover (§3.4).

    Client access resumes only after the first CP can run, and the first CP
    needs operational AA caches.  Without TopAA metafiles that means a
    linear walk of every bitmap-metafile page to recompute every AA score —
    time linear in file-system size.  With TopAA metafiles it means reading
    one 4KiB block per RAID-aware cache (the top ~500 AAs) and two blocks
    per RAID-agnostic cache (the embedded HBPS pages) — constant time —
    while the full rebuild proceeds in the background. *)

type image
(** A crash-consistent snapshot: configuration, allocation bitmaps, and the
    persisted TopAA pages — one {!Space.topaa} per [Best_aa] space. *)

type verify_report = {
  pages_verified : int;  (** integrity pages checked against sidecars *)
  torn_pages : int;      (** CRC matched neither generation (bit-rot) *)
  stale_pages : int;     (** matched the previous generation (lost write) *)
  ahead_pages : int;     (** sealed past the superblock; accepted *)
  unverified_stores : int;  (** tracked stores with no valid sidecar *)
  ranges_quarantined : int;  (** aggregate ranges routed to {!Rebuild} *)
  vols_quarantined : int;
}

type timing = {
  topaa_blocks_read : int;
      (** TopAA pages read: one per heap block, two per HBPS *)
  metafile_pages_scanned : int;
  aas_scored : int;            (** AA scores recomputed before first CP *)
  ops_replayed : int;          (** NVRAM-logged operations re-staged *)
  ready_us : float;            (** modeled time until the first CP may run *)
  verify : verify_report option;  (** set when mounted with [~verify:true] *)
}

type cost_model = {
  page_read_us : float;   (** read one 4KiB metafile/TopAA block *)
  page_scan_cpu_us : float;  (** popcount one bitmap page into AA scores *)
  seed_insert_us : float; (** file one seeded AA into a cache *)
  replay_op_us : float;   (** re-stage one NVRAM-logged operation *)
}

val cost : cost_model
(** The modeled prices every mount charges to [ready_us]: 250 µs per
    page read, 40 µs to score a scanned page, 0.2 µs per seeded AA and
    5 µs per replayed operation. *)

val snapshot : Fs.t -> image
(** Capture bitmaps and TopAA blocks, as the last completed CP would have
    persisted them, plus the NVRAM log of operations staged since —
    {!mount} replays those so no acknowledged operation is lost. *)

val corrupt_topaa : image -> Space.label -> unit
(** Fault injection: flip bytes in every TopAA page of the space with this
    label.  A subsequent {!mount} detects the damage via the page checksum
    and falls back to scanning that space's bitmap (charged to
    [ready_us]).  Raises [Invalid_argument] if no space with TopAA pages
    has the label (a cacheless space has none). *)

val tear_agg_bitmap_page : image -> page:int -> unit
(** Fault injection: model a torn write to aggregate bitmap-metafile page
    [page] — its second half reads back as zeros ("free").  {!Iron.check}
    on the mounted system reports the inconsistencies; {!Iron.repair} with
    [Container_authority] re-marks the referenced blocks.  Raises
    [Invalid_argument] if [page] is out of range. *)

val verify_pagestores : Fs.t -> verify_report
(** Check every integrity-tracked pagestore of a {e live} system against
    its persisted sidecars ({!Wafl_bitmap.Integrity}): classify each 4 KiB
    page intact / ahead / torn / stale, quarantine the aggregate ranges
    and volumes the bad pages overlap (damage-proportional
    {!Rebuild.request}), and re-stamp the damaged pages as the new bitmap
    truth — the caller then runs {!Iron.repair} under container authority
    to settle bitmap-vs-container disagreements.  This is the
    cross-process remount check: call it right after [Fs.create] under the
    same mmap directory a previous process persisted.  No-op report when
    no mmap directory is installed.  Emits the [mount.verify_*]
    telemetry. *)

val mount :
  ?lazy_rebuild:bool ->
  ?verify:bool ->
  ?run:Config.run ->
  image ->
  with_topaa:bool ->
  Fs.t * timing
(** Bring the snapshot back as a fresh system: space state, each volume's
    namespace (container map and file block maps) and the NVRAM log.
    [with_topaa:true] seeds each [Best_aa] space's cache from its
    persisted TopAA pages ({!Space.seed}; a cacheless space has none, and
    reads none) and then,
    unless [lazy_rebuild], runs the full cache rebuild — exact scores for
    every AA — off the timed path, the way the production system finishes
    its background scanner dozens of seconds after mount: by the time
    [mount] returns, a TopAA mount allocates identically to a full-scan
    mount.  [false] pays the full scan.

    [lazy_rebuild] (default [false]) makes the mount {e incremental}:
    every space is marked stale up front, and each one materializes its
    exact scores and cache on first touch ({!Space.touch}) — the
    allocator's AA pick or harvest, the Iron scan, or a cleaner pass —
    paying the metafile page reads for just that space, right then
    (counted by the [rebuild.lazy_ranges] / [rebuild.lazy_vols]
    telemetry).  With [with_topaa:true] the constant-cost seeding still
    runs (so picks before the first touch follow the persisted top AAs)
    but the eager background rebuild is skipped — the state the paper
    measures immediately after failover; with [with_topaa:false]
    nothing is scanned at all and [ready_us] is the NVRAM replay alone —
    independent of aggregate size.  Once every space has been touched,
    the system's state is bit-identical to an eager mount's, because
    both funnel through {!Rebuild.request}.

    Every mount increments exactly one of the [mount.topaa_mounts] /
    [mount.full_scan_mounts] / [mount.deferred_scan_mounts] telemetry
    counters, so which path a workload took is observable (lazy mounts
    additionally increment [mount.lazy_mounts]); TopAA mounts also emit
    [mount.topaa_blocks_read], [mount.topaa_seeds] and
    [mount.fallback_pages_scanned], full-scan mounts [mount.scan_pages]
    and [mount.aas_scored].

    [verify] (default [false]) runs the {!verify_pagestores}
    classification against the {e persisted} mapped bytes before the
    image is restored over them: damage found on disk is reported in
    [timing.verify], and the ranges/volumes it overlapped are rescanned
    after the restore heals the data.  Meaningless (empty report) without
    an installed mmap directory.

    [run] (default: the image's own) is how the mounted system runs — an
    image can come back file-mapped, with the same resulting state. *)
