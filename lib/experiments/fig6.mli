(** Figure 6 (§4.1): latency vs achieved throughput with the AA caches
    enabled for both VBN spaces, for the FlexVol only, for the aggregate
    only, and for neither.

    Rig: an all-SSD aggregate aged to ~55% fullness and thoroughly
    fragmented by random-overwrite traffic; measurement traffic is 8KiB
    random overwrites (two 4KiB blocks per op).  Also reproduces the
    section's scalar claims: chosen-AA free space vs random selection, and
    the FTL write-amplification reduction. *)

type variant = Both | Flexvol_only | Aggregate_only | Neither

val variant_name : variant -> string

type result = {
  variant : variant;
  curve : Wafl_sim.Load.curve;
  phys_chosen_free_frac : float;  (** mean free fraction of AAs chosen for
                                      physical VBNs during measurement *)
  virt_chosen_free_frac : float;
  write_amp : float;              (** FTL write amplification during
                                      measurement *)
  aggregate_free_frac : float;    (** overall free fraction at measurement *)
}

val run_variant : ?run:Wafl_core.Config.run -> Common.scale -> variant -> result

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result list
(** All four variants on identically-aged systems. *)

val print : result list -> unit
(** The figure's series plus the paper-vs-measured comparison table. *)
