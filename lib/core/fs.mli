(** Public facade: the simulated ONTAP system.

    Client operations stage block writes; {!run_cp} flushes everything
    staged as one consistency point, exactly as WAFL collects thousands of
    modifying operations and commits them together (§2.1). *)

type t

val create : Config.t -> t
(** Build the system the config describes, running as its {!Config.run}
    says: durable page stores file-mapped when a map directory is
    installed ({!Wafl_bitmap.Pagestore.with_mmap_dir}, which [waflsim]
    opens on [mmap_dir]), scans and CP stages run on a scan pool of
    [jobs] domains ({!Aggregate.pool}; the one-domain
    {!Wafl_par.Par.serial} handle at [jobs = 1]), allocation
    windows over a separate pool of [alloc_domains], the run's fault spec
    attached, and [scrub_rate] pages scrubbed after every CP.  Pools come
    from a process-wide cache ({!Wafl_par.Par.shared}), so building a
    system spawns no domains of its own. *)

val enable_registry : unit -> unit
(** Start recording every subsequently {!create}d system in a process-wide
    list (clearing any previous recording).  Lets batch drivers audit the
    systems an experiment built without plumbing handles through. *)

val disable_registry : unit -> unit
val registered : unit -> t list
(** Systems created since {!enable_registry}, in creation order. *)

val config : t -> Config.t
val aggregate : t -> Aggregate.t
val write_alloc : t -> Write_alloc.t

val temperature : t -> Temperature.t option
(** The write-temperature inference handle, present when the config asks
    for more than one class ({!Config.stream_spec}); {!run_cp} threads it
    into {!Cp.run} so staged writes are classified and routed. *)

val vols : t -> Flexvol.t array
val vol : t -> string -> Flexvol.t
(** Raises [Not_found] for an unknown volume name. *)

val rng : t -> Wafl_util.Rng.t
(** The system's seeded generator (workloads should [Rng.split] it). *)

val stage_write : t -> vol:Flexvol.t -> file:int -> offset:int -> unit
(** Stage one 4KiB block write.  Writing the same (vol, file, offset) twice
    before a CP coalesces, as the in-memory buffer cache would.  Raises
    [Invalid_argument] for a negative offset, before anything is staged. *)

val staged_count : t -> int

val staged_ops : t -> (string * int * int) list
(** The operations logged since the last completed CP, as (volume name,
    file, offset) in arrival order — the NVRAM log a failover partner
    replays before resuming service (§3.4). *)

val run_cp : t -> Cp.report
(** Flush everything staged as one consistency point, on the system's
    scan pool, with the same results at any domain count — see
    {!Cp.run}.  When the run's [scrub_rate] is positive,
    one scrubber pass of that many pages ({!Scrub.pass}) follows the
    CP. *)

val set_scrubber : (t -> budget:int -> unit) -> unit
(** The link to {!Scrub}, which heals through {!Iron.repair} and so
    cannot be called from here; [Scrub] fills it when linked.  Not a
    switch: whether a system scrubs is its run's [scrub_rate]. *)

val scrub_cursor : t -> int ref
(** The scrubber's round-robin position in this system's tracked
    pages. *)

val create_snapshot : t -> vol:Flexvol.t -> int
(** Pin the volume's current state (free at creation, COW). *)

val delete_snapshot : t -> vol:Flexvol.t -> int -> int
(** Delete a snapshot, queueing every block only it referenced for freeing
    at the next CP; returns how many blocks were queued.  This burst of
    random frees is the §4.1.1 "other internal activity" that deepens
    free-space nonuniformity. *)

val cps_completed : t -> int

val file_read_chains : t -> vol:Flexvol.t -> file:int -> Wafl_block.Chain.summary
(** The device read chains a full sequential read of the file needs: its
    blocks in offset order, mapped to physical locations and coalesced into
    contiguous runs.  Long chains = few read I/Os (§2.4); a file laid down
    young reads in a handful of chains, an aged one in hundreds. *)
