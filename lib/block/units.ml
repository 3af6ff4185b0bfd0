let block_size = 4096
let bits_per_metafile_block = block_size * 8
let default_raid_agnostic_aa_blocks = bits_per_metafile_block
let default_hdd_aa_stripes = 4096
let tetris_stripes = 64
let azcs_region_blocks = 64
let azcs_data_blocks = 63

let kib = 1024
let mib = kib * kib
let gib = kib * mib
let tib = kib * gib

let blocks_of_bytes bytes = Wafl_util.Bitops.ceil_div bytes block_size
let bytes_of_blocks blocks = blocks * block_size
