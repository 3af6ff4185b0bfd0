(** Figure 9 (§4.3): sequential writes on SMR drives with the AA size
    aligned to AZCS checksum regions versus the historical HDD sizing.

    Rig: an unaged SMR RAID group receiving sequential writes.  With the
    HDD AA size (4096 stripes — not a multiple of the 63 data blocks that
    share a checksum block), every AA switch splits an AZCS region and
    forces a random checksum-block write; the AZCS-aligned size keeps every
    checksum write sequential.  Paper: +7% drive throughput, -11%
    latency. *)

type sizing = Hdd_aa | Azcs_aligned_aa

val sizing_name : sizing -> string

type result = {
  sizing : sizing;
  aa_stripes : int;
  azcs_aligned : bool;
  curve : Wafl_sim.Load.curve;
  blocks_written : int;
  device_time_s : float;
  drive_throughput_blocks_per_s : float;
  random_checksum_writes : int;
  sequential_fraction : float;  (** fraction of device writes that were
                                    sequential appends *)
}

val run_sizing : ?run:Wafl_core.Config.run -> Common.scale -> sizing -> result
val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result list
val print : result list -> unit
