type hdd = { seek_us : float; transfer_us_per_block : float }

type ssd = {
  erase_block_blocks : int;
  read_us : float;
  program_us : float;
  erase_us : float;
  overprovision : float;
}

type smr = {
  zone_blocks : int;
  seq_write_us : float;
  seek_us : float;
  zone_rmw_us_per_block : float;
}

type object_store = { put_us : float; object_blocks : int }

let default_hdd = { seek_us = 8000.0; transfer_us_per_block = 20.0 }

let default_ssd =
  { erase_block_blocks = 512; read_us = 60.0; program_us = 200.0; erase_us = 2000.0; overprovision = 0.07 }

let default_smr =
  { zone_blocks = 16384; seq_write_us = 15.0; seek_us = 10000.0; zone_rmw_us_per_block = 15.0 }

let default_object_store = { put_us = 20000.0; object_blocks = 1024 }
