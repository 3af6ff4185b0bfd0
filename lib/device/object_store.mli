(** Object-store backend model.

    Fabric Pool aggregates place cold data in an on-premises or cloud object
    store with native redundancy (§2.1); WAFL's only layout goal there is
    writing consecutive VBNs so blocks aggregate into few objects.  We model
    a store that accepts PUTs of [object_blocks]-sized objects, so the cost
    of a flush is driven by how many distinct objects its blocks span. *)

type t

type stats = { puts : int; blocks_written : int }

val create : ?profile:Profile.object_store -> unit -> t

val set_fault : t -> Wafl_fault.Fault.device option -> unit
(** Attach (or detach) a fault-injection handle; {!write_batch} consults
    it per block, in the order given, and drops failed blocks from the PUT
    accounting. *)

val write_batch : t -> int array -> pos:int -> len:int -> unit
(** Write the VBNs [vbns.(pos .. pos+len-1)] ([vbns] is only read); each
    distinct [object_blocks]-aligned range touched costs one PUT
    (duplicates coalesced).  The batch is staged and sorted on a reused
    scratch array, so a flush allocates nothing per batch. *)

val cost_us : t -> stats_delta:stats -> float

val stats : t -> stats
val diff_stats : after:stats -> before:stats -> stats
