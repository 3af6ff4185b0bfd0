open Wafl_util
open Wafl_block
open Wafl_device

type media = Hdd | Ssd of Profile.ssd | Smr of Profile.smr

let default_hdd_stripes = Units.default_hdd_aa_stripes
let default_raid_agnostic_blocks = Units.default_raid_agnostic_aa_blocks

let ssd_stripes ?(erase_blocks_per_aa = 4) (p : Profile.ssd) =
  assert (erase_blocks_per_aa > 0);
  erase_blocks_per_aa * p.Profile.erase_block_blocks

let smr_stripes ?(zones_per_aa = 2) ~azcs (p : Profile.smr) =
  assert (zones_per_aa > 0);
  let stripes = zones_per_aa * p.Profile.zone_blocks in
  (* AA stripes count data VBNs; a checksum block is interleaved on the
     device after every 63, so AZCS alignment means a multiple of 63. *)
  if azcs then Bitops.round_up stripes Units.azcs_data_blocks else stripes

let is_erase_block_aligned ~aa_stripes (p : Profile.ssd) =
  aa_stripes mod p.Profile.erase_block_blocks = 0

let is_azcs_aligned ~aa_stripes = aa_stripes mod Units.azcs_data_blocks = 0

let memory_bytes_for_heap ~aa_count = 8 * aa_count
