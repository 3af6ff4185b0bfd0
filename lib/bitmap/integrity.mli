(** Persisted-state integrity: CRC-32 sidecars over the file-mapped
    pagestores.

    With [--mmap DIR] the mapped bytes are the durable free-space
    state, and mmap gives no acknowledgement to check them against.  This
    plane seals every {e tracked} store (the bitmap-metafile map stores,
    registered by [Metafile.create]) page by page: a CRC-32 and a
    CP-generation stamp per 4 KiB page, plus the previous generation's
    CRC, persisted next to [ps<seq>.bin] as [ps<seq>.crc].  A
    [superblock.bin] in the same directory records the committed
    generation.

    The plane is passive unless a map directory is installed
    ({!Pagestore.with_mmap_dir}); every operation below is a no-op on
    heap/anonymous stores, so non-mmap configurations pay nothing.  All
    state is keyed to {!Pagestore.mmap_epoch}: a remount (new epoch)
    discards in-memory seals and reloads sidecars from disk, exactly like
    a reboot.

    Fault closure: when the fault spec handed over by {!arm} carries
    [rot=STORE:PAGE\@GEN] / [lost=STORE:PAGE\@GEN] entries ([STORE] is
    the tracked-store ordinal: 0 = the first tracked store, normally the
    aggregate activemap), {!cp_commit} injects the damage
    into the persisted bytes at exactly that committed generation —
    bit-rot flips bits (classifies {e torn}), a lost write reverts the
    page to the previous commit's image (classifies {e stale}).  An arm
    whose generation is already committed at epoch start never fires, so
    replay CPs after a remount do not re-inject. *)

type page_state =
  | Intact  (** CRC matches, generation <= committed *)
  | Ahead
      (** CRC matches but the generation is past the superblock: the CP
          crashed between sidecar persist and superblock write.
          Verification reseals these into the committed generation. *)
  | Torn  (** matches neither generation — bit-rot or a partial write *)
  | Stale  (** matches the {e previous} generation — a lost write *)

val page_size : int
(** Integrity page granularity in store bytes (4096: one modeled block). *)

val set_enabled : bool -> unit
(** Master switch (default on).  Off: every operation is a no-op even
    under an mmap directory — how the bench measures unsealed CP cost. *)

val arm : Wafl_fault.Fault.spec -> unit
(** Arm the spec's [rot]/[lost] injections for the current epoch — called
    by an aggregate as it attaches its fault plane.  Idempotent within an
    epoch: only the first call arms, so a remount that builds a second
    aggregate in the same epoch cannot re-arm damage that already fired.
    No-op without an installed map directory. *)

val committed_generation : unit -> int
(** The committed CP generation of the current epoch (loaded from
    [superblock.bin], advanced by {!cp_commit}); 0 when inactive. *)

val track : Pagestore.t -> unit
(** Register a store for sealing/verification.  No-op unless the store is
    file-mapped under the current directory epoch.  Loads the store's
    sidecar when a valid one exists (remount); otherwise seals the
    current contents at the committed generation and remembers that the
    store was unverifiable ({!store_report.sidecar_loaded} = false). *)

val tracked : Pagestore.t -> bool

val n_pages : Pagestore.t -> int option
(** Number of integrity pages of a tracked store ([None] untracked). *)

val seal_range : Pagestore.t -> pos:int -> len:int -> unit
(** Mark the integrity pages overlapping byte range [\[pos, pos+len)] as
    sealed this CP cycle.  The actual seal is deferred to {!cp_commit},
    which — once per marked page, however many flushes re-dirtied it —
    rotates the previous CRC, recomputes the CRC over the bytes being
    committed, and stamps generation [committed + 1].  Until then the
    in-memory seal state still describes the last committed image (which
    is what {!verify_page} checks against).  Called by [Metafile.flush]
    for each dirty metafile page. *)

val reseal_page : Pagestore.t -> int -> unit
(** Re-stamp one page as committed truth — the heal step after a repair
    rewrote it from container authority. *)

val reseal_all : Pagestore.t -> unit
(** {!reseal_page} over the whole store — after [Metafile.load] blits a
    restored image over it. *)

val verify_page : Pagestore.t -> int -> page_state option
(** Classify one page against its sidecar ([None]: untracked store or
    page out of range).  Pure: reseals nothing. *)

type store_report = {
  ord : int;  (** tracked-store ordinal (the fault-spec [STORE]) *)
  seq : int;  (** pagestore file sequence *)
  path : string;
  store : Pagestore.t;
  pages : int;
  torn : int list;  (** torn page indices, ascending *)
  stale : int list;  (** stale page indices, ascending *)
  ahead : int;  (** pages accepted from a pre-superblock crash *)
  sidecar_loaded : bool;
      (** false: no valid sidecar existed at track time, so the store was
          sealed blind and cannot vouch for pre-existing bytes *)
}

val verify_store : Pagestore.t -> store_report option
(** Classify every page of a tracked store.  Ahead pages are resealed
    into the committed generation (and counted); torn/stale pages are
    only reported — the caller quarantines and heals them.  Increments
    [integrity.unverified_stores] for a store without a loaded sidecar. *)

val cp_commit : unit -> unit
(** End-of-CP hook: seal every page marked by {!seal_range} since the
    last commit (rotate prev, CRC the committed bytes, stamp the next
    generation), persist dirty sidecars ([integrity.sidecar_writes]),
    advance and persist the superblock, then fire any armed fault
    injections ([integrity.rot_injected] / [integrity.lost_injected]).
    Does nothing when no store was sealed since the last commit.  Crash
    points [integrity.persist] (before the sidecar writes) and
    [integrity.superblock] (between sidecars and superblock) let the
    crash matrix kill a CP inside the seal/persist window. *)
