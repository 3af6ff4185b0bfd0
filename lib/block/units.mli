(** File-system constants shared across the reproduction.

    WAFL addresses storage in 4KiB blocks (paper §2).  A 4KiB bitmap-metafile
    block holds 32k bits, one per VBN (§3.2.1), which is why the default
    RAID-agnostic allocation area is 32k consecutive VBNs.  AZCS groups 63
    data blocks with one checksum block (§3.2.4). *)

val block_size : int
(** Bytes per WAFL block: 4096. *)

val bits_per_metafile_block : int
(** Bits (VBNs) tracked by one 4KiB bitmap-metafile block: 32768. *)

val default_raid_agnostic_aa_blocks : int
(** Default AA size without RAID geometry: 32k VBNs (one metafile block). *)

val default_hdd_aa_stripes : int
(** Default AA size for an HDD RAID group: 4k stripes (§3.2.1). *)

val tetris_stripes : int
(** Stripes per tetris, the unit of write I/O from WAFL to RAID: 64 (§4.2). *)

val azcs_region_blocks : int
(** Blocks per AZCS region: 63 data + 1 checksum = 64 (§3.2.4). *)

val azcs_data_blocks : int
(** Data blocks per AZCS region: 63. *)

val tib : int

val blocks_of_bytes : int -> int
(** Bytes to whole 4KiB blocks, rounding up. *)

val bytes_of_blocks : int -> int
