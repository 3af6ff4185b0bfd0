(** Advanced zone checksums (AZCS).

    On drives with 4KiB-aligned sectors there is no room to store WAFL's
    64-byte per-block identifier inline, so 63 consecutive data blocks share
    the 64th block as their checksum block (§3.2.4, Figure 4).  When an
    allocation area boundary falls inside an AZCS region, finishing writes
    at the end of one AA and later writing the rest of the region from
    another AA forces a {e random} (non-sequential) write of the shared
    checksum block — the cost Figure 9 measures on SMR drives.

    {!tracker} consumes an ordered stream of data-block writes and derives
    the checksum-block writes together with their sequential/random
    classification. *)

val region_blocks : int
(** 64: 63 data blocks + 1 checksum block. *)

val region_of_block : int -> int
(** AZCS region index of a device block. *)

val checksum_block : region:int -> int
(** Device block number of a region's checksum block (its last block). *)

val is_checksum_block : int -> bool

val is_aligned : int -> bool
(** Whether a size or boundary (in {e device} blocks) is a multiple of the
    region size — the AA-sizing condition of §3.2.4 / Figure 4 (C). *)

val is_data_aligned : int -> bool
(** The same condition expressed in {e data} blocks (file-system VBNs,
    which exclude checksum blocks): a multiple of 63. *)

val data_capacity : int -> int
(** Usable data blocks within [n] total blocks laid out as AZCS regions. *)

val device_position_of_data : int -> int
(** Where the [i]-th data block of an AZCS-formatted span lands on the
    device: a checksum block is interleaved after every 63 data blocks, so
    [i + i/63]. *)

val device_span_of_data : int -> int
(** Device blocks needed to store [n] data blocks with their interleaved
    checksum blocks: [n + ceil(n/63)]. *)

(** {2 Write-stream tracking} *)

type tracker

type checksum_write = {
  block : int;       (** checksum block written *)
  sequential : bool; (** true when appended in order after its full region *)
}

type summary = {
  data_writes : int;
  sequential_checksum_writes : int;
  random_checksum_writes : int;
}

val create_tracker : unit -> tracker

val set_tracker_fault : tracker -> Wafl_fault.Fault.device option -> unit
(** Attach (or detach) a fault-injection handle.  The tracker consults it
    when it emits a checksum-block write: a torn or failed checksum write
    is classified as random (the drive must rewrite it out of order). *)

val write : tracker -> int -> checksum_write list
(** Feed the next data-block write position (must not be a checksum block).
    Returns the checksum-block writes this transition triggers: leaving a
    region whose data blocks were all written in-order in a single visit
    yields a sequential checksum write; leaving a partially-written region
    yields a random one. *)

val finish : tracker -> checksum_write list
(** Flush the trailing region at end of stream. *)

val summary : tracker -> summary
