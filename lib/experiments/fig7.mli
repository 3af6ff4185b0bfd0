(** Figure 7 (§4.2): write distribution across differently-aged RAID groups
    under an OLTP workload.

    Rig: an all-HDD aggregate of four RAID groups; RG0 and RG1 are aged
    until a random half of their blocks are in use, RG2 and RG3 are fresh.
    The write allocator should (a) spread blocks evenly across the disks of
    equally-aged groups, (b) send more blocks to the fresh groups, and (c)
    write {e less efficient} tetrises to the aged groups (fewer blocks per
    tetris), giving them a marginally higher tetris rate per block
    written. *)

type rg_stats = {
  rg : int;
  aged : bool;
  per_disk_blocks : float array;  (** blocks/s per data disk *)
  blocks_per_s : float;
  tetrises_per_s : float;
  blocks_per_tetris : float;
}

type result = {
  groups : rg_stats list;
  duration_s : float;   (** modeled measurement time *)
  ops_per_s : float;    (** client load the measurement models *)
}

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result
val print : result -> unit
