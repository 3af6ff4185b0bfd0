(** §4.1 scalar claims that are not tied to a figure:

    - cache maintenance consumes a vanishing share of CPU (paper: ~0.002%
      per cache under heavy load);
    - the HBPS error bound (3.125% of the maximum score);
    - the RAID-aware cache memory example (1M AAs tracked for a 16TiB
      device, a few MiB);
    - TopAA block capacity (~512 entries in one 4KiB block). *)

type result = {
  cache_cpu_share : float;      (** fraction of total CPU in cache code *)
  hbps_error_margin : float;
  hbps_worst_observed_error : float;  (** worst pick error seen in a churn run *)
  heap_memory_bytes_1m_aas : int;
  topaa_entries_per_block : int;
}

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result
val print : result -> unit
