(** Allocation-area sizing policies (§3.2).

    Smaller AAs differentiate free-space quality at finer grain; larger AAs
    cost less memory and, critically, can be matched to media write units:
    erase blocks on SSDs, shingle zones and AZCS checksum regions on SMR
    drives (Figure 4). *)

type media = Hdd | Ssd of Wafl_device.Profile.ssd | Smr of Wafl_device.Profile.smr

val default_hdd_stripes : int
(** 4k stripes — the historical default for HDD RAID groups (§3.2.1). *)

val default_raid_agnostic_blocks : int
(** 32k VBNs, matching one bitmap-metafile block (§3.2.1). *)

val ssd_stripes : ?erase_blocks_per_aa:int -> Wafl_device.Profile.ssd -> int
(** AA size (in stripes) for an SSD RAID group: the per-device span covers
    [erase_blocks_per_aa] (default 4) whole erase blocks, so writing out an
    AA overwrites erase blocks end to end and minimizes FTL relocation
    (§3.2.2, Figure 4 (B)). *)

val smr_stripes :
  ?zones_per_aa:int -> azcs:bool -> Wafl_device.Profile.smr -> int
(** AA size (in stripes) for an SMR RAID group: per-device span covers
    [zones_per_aa] (default 2) shingle zones; with [azcs:true] the size is
    additionally rounded up to a multiple of the AZCS {e data-block} count
    (63) so every AA covers whole checksum regions and checksum blocks are
    always written in sequence (§3.2.3-3.2.4, Figure 4 (C)). *)

val is_erase_block_aligned : aa_stripes:int -> Wafl_device.Profile.ssd -> bool
(** Whether the per-device AA span is a whole multiple of the erase block. *)

val is_azcs_aligned : aa_stripes:int -> bool

val memory_bytes_for_heap : aa_count:int -> int
(** Memory footprint of tracking [aa_count] AAs in a RAID-aware max-heap
    cache at 8 bytes/entry — the §3.3.1 example (1M AAs ≈ 1MiB won't hold
    to the byte, but the linear scaling does). *)
