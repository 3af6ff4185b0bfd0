let stripes_per_tetris = Wafl_block.Units.tetris_stripes

type summary = {
  tetrises : int;
  blocks : int;
  mean_blocks_per_tetris : float;
  per_device_blocks : int array;
}

let pp_summary fmt s =
  Format.fprintf fmt "tetrises=%d blocks=%d mean=%.1f" s.tetrises s.blocks
    s.mean_blocks_per_tetris
