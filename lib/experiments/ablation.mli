(** Ablations of the design choices DESIGN.md calls out.

    - {b HBPS bin width} (§3.3.2): wider bins mean a larger worst-case pick
      error but fewer bins to maintain; the paper chose 1k of 32k (3.125%).
    - {b Allocation policy}: best-AA (the paper), uniformly random (the
      paper's baseline), and classic first-fit.
    - {b RAID-group fragmentation threshold} (§3.3.1): skipping groups whose
      best AA is below a score floor trades aggregate bandwidth for stripe
      efficiency.
    - {b Segment cleaning} (§3.3.1): cleaning the emptiest AAs costs few
      relocations per reclaimed AA; cleaning the fullest costs many. *)

type bin_width_point = {
  bin_width : int;
  guaranteed_error : float;
  worst_observed_error : float;
  mean_pick_score : float;
}

type policy_point = {
  policy : string;
  peak_throughput : float;
  mean_chosen_free : float;
  stripe_fullness : float;
}

type threshold_point = {
  threshold : int option;
  total_blocks_per_s : float;
  partial_stripe_fraction : float;
}

type cleaner_point = {
  strategy : string;          (** "emptiest-first" vs "fullest-first" *)
  relocations_per_aa : float;
  blocks_reclaimed : int;
}

type result = {
  bin_widths : bin_width_point list;
  policies : policy_point list;
  thresholds : threshold_point list;
  cleaner : cleaner_point list;
}

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result
val print : result -> unit
