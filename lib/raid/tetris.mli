(** Tetrises: the unit of write I/O from WAFL to a RAID group.

    A tetris is 64 consecutive stripes (§4.2).  WAFL gathers the blocks
    allocated in a CP into tetrises and ships each as one I/O to the RAID
    group.  Tetrises covering fragmented regions carry partial stripes and
    fewer blocks, which is why Figure 7 reports both blocks/s per disk and
    tetrises/s per RAID group: aged groups get {e fewer blocks} but a
    {e marginally higher} tetris rate per block.  {!Group.record_flush}
    counts a flush's tetrises: the distinct [stripe / 64] values among its
    written blocks. *)

type summary = {
  tetrises : int;
  blocks : int;
  mean_blocks_per_tetris : float;
  per_device_blocks : int array;  (** blocks written per data device *)
}

val stripes_per_tetris : int
(** 64. *)

