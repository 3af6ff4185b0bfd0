(** Figure 8 ablation, extended: how much of the SSD write-amplification
    win is AA sizing and how much is write-temperature segregation.

    Three variants on the aged all-SSD rig (85% full, then skewed 4KiB
    random overwrites — 90% of writes on 2% of the working set, plus a
    metadata trickle on a dedicated file):

    - HDD-sized AA, one FTL stream (the historical baseline);
    - erase-block AA, one stream (the paper's fix — WA 1.46 in fig 8);
    - erase-block AA with 4 temperature classes routed to 4 FTL streams
      and wear-biased AA scoring (this repo's extension).

    Segregation should land WA below both the unsegregated erase-block
    figure and the paper's 1.46, with hot streams absorbing most erases. *)

type variant = Small_aa | Large_aa | Large_aa_segregated

val variant_name : variant -> string

type stream_row = {
  stream : int;
  host : int;
  device : int;
  relocated : int;
  erases : int;
  wa : float;
}

type result = {
  variant : variant;
  aa_stripes : int;
  spec : Wafl_core.Config.stream_spec;
  curve : Wafl_sim.Load.curve;
  write_amp : float;
  per_stream : stream_row list;
  wear_min : int;
  wear_max : int;
}

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result list

val print : ?scale:Common.scale -> result list -> unit
(** [scale] (default [Quick]) picks the gate: at quick scale the
    segregated variant must land below both the unsegregated one and the
    paper's 1.46; at full scale only the segregation win is gated (the
    FTL's worst-case relocation pricing inflates every absolute full-scale
    fig-8 WA figure — see EXPERIMENTS.md). *)
