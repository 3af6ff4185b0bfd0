(** Per-RAID-group write accounting across consistency points.

    Accumulates, flush by flush, the stripe classification, tetris counts,
    per-device block counts and write-chain summaries that the evaluation
    section reports (Figures 1, 6, 7). *)

type t

type totals = {
  flushes : int;
  blocks_written : int;             (** data blocks *)
  tetrises_written : int;
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;
  extra_parity_reads : int;
  per_device_blocks : int array;
  chain_count : int;                (** device write I/Os issued *)
  chain_blocks : int;
}

val create : Geometry.t -> t

val geometry : t -> Geometry.t

type flush_report = {
  classification : Stripe.classification;
  tetris : Tetris.summary;
  chains : int;        (** device write I/Os this flush *)
  chain_blocks : int;
}

val record_flush : t -> vbns:int array -> pos:int -> len:int -> flush_report
(** Account one CP's writes, [vbns.(pos .. pos+len-1)], to this group and
    return that flush's own classification, tetris summary and chain
    counts.  [vbns] is only read.  The CP passes each range's writes
    sorted and duplicate-free (sorted once per CP, the same slice the
    FTL reads); that input costs one linear check.  Any other order, and
    duplicates, are accepted too: they are sorted and duplicates count
    once.  The VBNs are copied into a scratch array the group keeps
    (grown to the largest flush, never shrunk), and the stripe pass is a
    merge of the per-device runs, so the work allocates nothing per
    block: a flush's heap cost is its report alone.  Raises
    [Invalid_argument] for a VBN outside the group. *)

val totals : t -> totals

val mean_chain_len : totals -> float
(** Blocks per device write I/O; 0 when nothing was written. *)

val stripe_fullness : totals -> float
(** Fraction of stripes written that were full. *)

val reset : t -> unit

