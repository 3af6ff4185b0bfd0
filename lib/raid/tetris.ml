let stripes_per_tetris = Wafl_block.Units.tetris_stripes

type summary = {
  tetrises : int;
  blocks : int;
  mean_blocks_per_tetris : float;
  per_device_blocks : int array;
}

