(** Hard-drive cost model.

    A device write I/O costs one positioning (seek + rotational latency)
    plus streaming transfer for every block in the chain, so long write
    chains amortize the seek (§2.4).  Random 4KiB reads each pay a full
    positioning. *)

val write_cost_us : Profile.hdd -> chains:int -> blocks:int -> float
(** Cost of writing [blocks] blocks grouped into [chains] contiguous
    device I/Os. *)

val random_read_cost_us : Profile.hdd -> ios:int -> float
(** Cost of [ios] independent 4KiB reads. *)

val faulty_write_cost_us :
  Wafl_fault.Fault.device option ->
  Profile.hdd ->
  chains:int ->
  locals:int array ->
  pos:int ->
  len:int ->
  parity_writes:int ->
  float
(** {!write_cost_us} with a fault plane consulted per data block in
    [locals.(pos .. pos+len-1)] (range-local block numbers), in order:
    failed blocks transfer nothing.  With [None] it is exactly
    [write_cost_us ~blocks:(len + parity_writes)]. *)

val streaming_bandwidth_blocks_per_s : Profile.hdd -> float
(** Upper bound: blocks per second with no seeks. *)
