(** Media performance profiles.

    Times are microseconds of simulated time; sizes are 4KiB blocks.  The
    defaults are round numbers representative of the paper's era (2018
    enterprise SAS HDDs, SATA/SAS SSDs, drive-managed SMR); the experiments
    depend on ratios between these constants, not their absolute values. *)

type hdd = {
  seek_us : float;          (** average seek + rotational positioning *)
  transfer_us_per_block : float;  (** sequential streaming per 4KiB block *)
}

type ssd = {
  erase_block_blocks : int; (** 4KiB pages per erase block *)
  read_us : float;          (** page read *)
  program_us : float;       (** page program *)
  erase_us : float;         (** whole erase block erase *)
  overprovision : float;    (** hidden capacity fraction, e.g. 0.07 or 0.28 *)
}

type smr = {
  zone_blocks : int;        (** 4KiB blocks per shingle zone *)
  seq_write_us : float;     (** per-block sequential write *)
  seek_us : float;          (** repositioning for a non-sequential write *)
  zone_rmw_us_per_block : float;
      (** per-block cost of the drive-managed read-modify-write that a write
          into the middle of a shingled zone triggers (§3.2.3) *)
}

type object_store = {
  put_us : float;           (** per-object PUT latency *)
  object_blocks : int;      (** blocks aggregated per object *)
}

val default_hdd : hdd
val default_ssd : ssd
(** 2MiB erase blocks (512 pages), 7% OP. *)

val default_smr : smr
(** 64MiB zones (16384 blocks). *)

val default_object_store : object_store
