(** Figure 8 (§4.3): latency vs throughput with the AA size tuned for HDD
    (4k stripes — a fraction of an SSD erase block) against an AA size
    that is a multiple of the erase block.

    Rig: an all-SSD aggregate aged to ~85% fullness with 4KiB random
    writes.  The erase-block-aligned AA halves write amplification and
    delivers higher peak throughput at lower latency (paper: +26%
    throughput, -21% latency, WA halved). *)

type sizing = Small_hdd_aa | Large_ssd_aa

val sizing_name : sizing -> string

type result = {
  sizing : sizing;
  aa_stripes : int;
  erase_block_aligned : bool;
  curve : Wafl_sim.Load.curve;
  write_amp : float;
}

val run_sizing : ?run:Wafl_core.Config.run -> Common.scale -> sizing -> result
val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result list
val print : result list -> unit
