(** Full/partial stripe classification and parity I/O cost.

    A full stripe write provides every data block of a stripe, so parity is
    computed without reads; a partial stripe write forces RAID to read the
    missing data (or old data + parity) first (§2.3).  {!Group.record_flush}
    classifies one flush's stripes; this module holds the classification
    and derives the device I/O bill from it.  Duplicate VBNs in a flush are
    counted once.  For a partial stripe with [k < data_devices] new blocks,
    parity is computed by read-modify-write: read the [k] old data blocks
    plus the [parity_devices] old parity blocks ([k + parity] extra reads),
    then write [k + parity] blocks. *)

type classification = {
  full_stripes : int;
  partial_stripes : int;
  blocks_in_full : int;     (** data blocks written as part of full stripes *)
  blocks_in_partial : int;
  parity_writes : int;      (** parity blocks written: stripes * parity_devices *)
  extra_reads : int;        (** blocks read to compute parity for partial stripes *)
}

val fullness_ratio : classification -> float
(** Fraction of written data blocks that were part of full stripes;
    0 when nothing was written. *)

val total_device_writes : Geometry.t -> classification -> int
(** Data + parity blocks physically written. *)

val pp : Format.formatter -> classification -> unit
