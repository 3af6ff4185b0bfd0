(** Write-temperature inference for the allocation path.

    The paper stops at "pick the emptiest AA"; SepBIT (arXiv 2104.12425)
    shows the next win is {e separating} writes by expected lifetime.  The
    estimator used here is SepBIT's core observation: when a write
    overwrites a logical location, the lifespan of the version it kills
    (in CPs, measured on an internal clock advanced once per CP) predicts
    how soon the new version will itself die.  Writes that kill young
    versions are {e hot}; writes that kill versions far older than the
    volume's running average are {e cold}; fresh writes and unknown
    births default to {e warm}; a configured metafile id is classed
    {e meta} unconditionally.

    State is bounded and off-heap: 2 bytes of birth epoch per
    vvbn per tracked volume on a {!Wafl_bitmap.Pagestore} (anonymous even
    under [--mmap] — inferred temperature is a cache, not
    persisted state), plus one EWMA float per volume.  Classification is
    allocation-free after a volume's first touch. *)

type cls = Hot | Warm | Cold | Meta

val cls_name : cls -> string

type t

val create : ?meta_file:int -> classes:int -> unit -> t
(** [classes] (1..4) is how many routing slots {!slot_of} collapses onto;
    [meta_file] marks one file id as metafile traffic.  The per-volume
    birth stores are never file-mapped. *)

val classes : t -> int

val advance_cp : t -> unit
(** Tick the birth-epoch clock; call once per completed CP. *)

val note_birth : t -> uid:int -> blocks:int -> vvbn:int -> unit
(** Record that [vvbn] of the volume identified by [uid] (whose vvbn
    space is [blocks] wide) was written this CP.  Out-of-range vvbns are
    ignored. *)

val classify : t -> uid:int -> blocks:int -> file:int -> prev:int option -> cls
(** Class of a staged write: [prev] is the vvbn the write overwrites
    ([None] for a fresh write).  Updates the volume's lifespan EWMA and
    the per-class counters. *)

val class_slot : cls -> classes:int -> int
(** Collapse a class onto [classes] routing slots; slot 0 is hottest.
    [classes = 2] splits hot vs rest; [3] hot/warm/rest; [4] keeps all
    four. *)

val slot_of : t -> cls -> int
(** [class_slot c ~classes:(classes t)]. *)

val classified : t -> cls -> int
(** How many {!classify} decisions returned this class. *)

val avg_lifespan : t -> uid:int -> float option
(** The volume's current EWMA of overwrite lifespans (CPs), if tracked. *)
