(** Drive-managed shingled magnetic recording (SMR) drive model.

    Tracks in a shingle zone overlap, so writing a block in the middle of a
    zone that already has data written beyond that position corrupts the
    following tracks unless the drive intervenes — either reading and
    rewriting the tail of the zone in place, or relocating out of place
    (§3.2.3).  We model the in-place variant: such a write pays a
    read-modify-write of every block between the write position and the
    zone's write pointer.  Purely ascending writes within a zone are cheap
    appends; jumps between non-adjacent positions pay a seek. *)

type t

type stats = {
  blocks_written : int;
  sequential_writes : int;   (** writes adjacent to the previous position *)
  random_writes : int;       (** writes that required repositioning *)
  rmw_blocks : int;          (** blocks rewritten by zone read-modify-write *)
  total_us : float;          (** accumulated device time *)
}

val create : ?profile:Profile.smr -> blocks:int -> unit -> t

val set_fault : t -> Wafl_fault.Fault.device option -> unit
(** Attach (or detach) a fault-injection handle; {!write} consults it per
    block.  Failed writes are dropped (no head movement, no pointer
    advance); torn writes pay the full mechanical cost. *)

val write_pointer : t -> zone:int -> int
(** Highest written position + 1 within the zone (0 = empty zone). *)

val write : t -> int -> unit
(** Write one block at the given position. *)

val write_stream : t -> int list -> unit
(** Write a sequence of positions in order. *)

val reset_zone : t -> zone:int -> unit
(** Model the drive (or host trim) recycling a zone. *)

val stats : t -> stats
