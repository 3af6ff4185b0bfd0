(** Figure 10 (§4.4): time to the first CP after mount, with and without
    TopAA metafiles.

    (A) 50 FlexVols of increasing size: the TopAA path is flat; the
    full-scan path grows linearly with volume size.
    (B) An increasing number of fixed-size FlexVols: TopAA grows only with
    the (tiny) per-volume block reads; the scan grows with total capacity. *)

type point = {
  x : int;            (** volume size in blocks (A) or volume count (B) *)
  with_topaa_us : float;
  without_topaa_us : float;
}

type result = {
  sweep_a : point list;  (** varying volume size, fixed count *)
  sweep_b : point list;  (** varying volume count, fixed size *)
  vols_a : int;
  vol_blocks_b : int;
}

val run : ?scale:Common.scale -> ?run:Wafl_core.Config.run -> unit -> result
val print : result -> unit
