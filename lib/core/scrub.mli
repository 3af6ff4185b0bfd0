(** Background pagestore scrubber: rate-limited between-CPs verification
    of the persisted free-space state against its CRC sidecars
    ({!Wafl_bitmap.Integrity}), with self-healing.

    Damage that is only read when it is needed is damage found too late —
    so, like a production filer's continuous media scrub, this walks the
    integrity pages of every tracked store round-robin, a bounded number
    per CP, and heals what it finds: the overlapped aggregate ranges or
    volumes are quarantined through {!Rebuild.request}, the
    bitmap-vs-container disagreement is settled by {!Iron.repair} under
    container authority (the container maps are the redundant copy the
    damaged bitmap page is rebuilt from), and the page is resealed as the
    new truth.

    Each pass runs under the [scrub] telemetry span and counts
    [scrub.passes], [scrub.pages_verified], [scrub.bad_pages] and
    [scrub.healed]; the per-CP time series carries the cumulative
    [scrub_pages] / [scrub_bad] columns.  Everything is a no-op unless an
    mmap directory is installed (nothing is tracked otherwise) — which is
    why {!Config.validate} rejects a positive scrub rate without an
    [mmap_dir]. *)

type stats = { pages_verified : int; bad_pages : int; healed : int; passes : int }

val zero_stats : stats

val pass : Fs.t -> budget:int -> stats
(** Run one scrub pass over [fs] now: verify up to [budget] integrity
    pages from the system's round-robin cursor ({!Fs.scrub_cursor}; CRC
    checks run as {!Wafl_par.Par.map_ranges} chunks on the system's scan
    pool, each chunk covering a page range; healing is serial), heal
    any torn/stale page found.  Returns what happened.  {!Fs.run_cp}
    runs one pass with [budget = scrub_rate] after every CP of a system
    whose run sets a positive rate, so a full sweep of [N] tracked pages
    takes [ceil (N / rate)] CPs. *)
