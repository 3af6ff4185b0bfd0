(** Write-chain accounting.

    A write chain is a run of consecutive blocks written to one device with a
    single I/O (§2.4).  Given the set of device block numbers written during
    a flush, this module reconstructs the chains and summarizes their
    lengths — the key efficiency signal for both HDD flush cost and
    subsequent sequential-read performance. *)

type summary = {
  chains : int;        (** number of distinct chains (i.e. device I/Os) *)
  blocks : int;        (** total blocks written *)
  mean_len : float;    (** blocks per chain *)
  max_len : int;
  min_len : int;
}

val of_blocks : int list -> summary
(** Chains of a non-empty, possibly unsorted list of block numbers; duplicate
    numbers are counted once. *)

val empty : summary
(** Zero blocks, zero chains. *)

val pp : Format.formatter -> summary -> unit
