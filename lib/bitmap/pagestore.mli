(** The flat word store under every bitmap-shaped structure (allocation
    bitmaps, activemap pending sets, metafile dirty maps, TopAA pages).

    The store is a run of little-endian 64-bit words held off-heap in a
    byte-kind [Bigarray.Array1] (C layout, mmap-ready).  The GC sees only
    the handle, so a modeled billion-block aggregate costs the runtime
    nothing — the paper's multi-TiB deployments (§3.4) need free-space
    state that is not heap-resident.  A store is anonymous memory unless
    it is created [~mapped:true] under an installed map directory, when it
    is a shared file mapping.

    Byte reads/writes return immediate native ints, so the zero-allocation
    harvest kernels ({!Bitmap.clear_mask32} and friends) stay
    allocation-free. *)

val with_mmap_dir : string -> (unit -> 'a) -> 'a
(** Run a thunk with a map directory installed: every [~mapped:true]
    {!create} inside becomes a shared file mapping of
    [<dir>/ps<seq>.bin], where [seq] counts such creations since the
    directory was installed.  A process that rebuilds the same structures
    in the same order therefore maps the same files — the [--mmap DIR]
    remount path.  Other creations (snapshots, copies, scratch stores)
    stay anonymous.  The previous directory and sequence counter are
    restored on exit (including exceptional exit). *)

val mmap_dir_path : unit -> string option
(** The currently installed map directory, if any. *)

val mmap_epoch : unit -> int
(** Bumped every time the map directory changes (both sides of
    {!with_mmap_dir}).  Consumers holding state derived
    from the mapped file set — integrity sidecars — compare epochs to
    know when to reload. *)

type t

val mapped_path : t -> (int * string) option
(** [(seq, path)] when the store was file-mapped under the {e current}
    directory installation; [None] for anonymous stores and for handles
    surviving from an earlier epoch. *)

val create : ?mapped:bool -> int -> t
(** [create words] is a zero-filled anonymous store of [words] 64-bit
    words ([words >= 0]) — unless [mapped] (default false) and a map
    directory is installed ({!with_mmap_dir}), in which case the store
    maps the next file in the directory's sequence (and a right-sized
    existing file keeps its contents).  The system's durable structures
    (bitmaps, TopAA pages) are created [~mapped:true]. *)

val of_bytes : ?mapped:bool -> Bytes.t -> t
(** Copy a byte image into a fresh store.  The image length must be a
    multiple of 8 (whole words) — raises [Invalid_argument] otherwise. *)

val to_bytes : t -> Bytes.t
(** Copy the store out as a heap byte image (serialization/CRC staging). *)

val words : t -> int
val length_bytes : t -> int

val byte : t -> int -> int
(** The i-th byte as an immediate int.  Unchecked: callers bounds-check
    against {!length_bytes} (the {!Bitmap} kernels already do). *)

val set_byte : t -> int -> int -> unit
(** Store the low 8 bits of the value at byte [i].  Unchecked, as {!byte}. *)

val word : t -> int -> int64
(** The w-th little-endian 64-bit word.  Unchecked against {!words}. *)

val fill : t -> pos:int -> len:int -> int -> unit
(** Fill a byte range with the low 8 bits of the value; bounds-checked. *)

val copy : t -> t
(** An anonymous store with the same contents. *)

val equal : t -> t -> bool
(** Content equality. *)

val blit : src:t -> dst:t -> unit
(** Copy full contents; sizes must match. *)
