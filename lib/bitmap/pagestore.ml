(* Byte-kind view of the little-endian int64-word layout: byte loads and
   stores are immediate ints (an int64-kind Bigarray would box every
   element read), while [word] reads one unaligned 64-bit load. *)
type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external get64u : t -> int -> int64 = "%caml_bigstring_get64u"
external set64u : t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* File-backed stores: when a map directory is installed, every store
   created [~mapped:true] becomes a shared mapping of the next file in the
   directory's deterministic ps<seq> sequence.  A structure-for-structure
   identical system (same config, same creation order) maps the same
   files, which is what lets a remount pick up exactly the bytes a
   previous process persisted.  Snapshots and other copies stay
   anonymous. *)
let mmap_dir : string option ref = ref None
let mmap_seq = ref 0

(* Registry of the stores mapped under the current directory, in sequence
   order: the integrity plane needs (seq, path) back from a store handle
   to name its sidecar file, and the verified-remount path enumerates the
   mapped set.  (Re)installing a directory starts a fresh epoch — stale
   handles from an earlier installation stop resolving, and consumers
   holding per-epoch state (sidecars) reload theirs. *)
let mapped_rev : (int * string * t) list ref = ref []
let epoch = ref 0

let with_mmap_dir dir f =
  let saved_dir = !mmap_dir and saved_seq = !mmap_seq in
  let saved_mapped = !mapped_rev in
  mmap_dir := Some dir;
  mmap_seq := 0;
  mapped_rev := [];
  incr epoch;
  Fun.protect
    ~finally:(fun () ->
      mmap_dir := saved_dir;
      mmap_seq := saved_seq;
      mapped_rev := saved_mapped;
      incr epoch)
    f

let mmap_dir_path () = !mmap_dir
let mmap_epoch () = !epoch

let mapped_path t =
  List.find_map (fun (seq, path, s) -> if s == t then Some (seq, path) else None) !mapped_rev

let map_file ~path words =
  if words < 0 then invalid_arg "Pagestore.map_file: negative size";
  let bytes = words * 8 in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* Size to fit, but only when the file doesn't already fit: a
         right-sized existing file keeps its persisted contents — that is
         the remount path.  A size mismatch truncates to zero FIRST, so
         the mapping is wholly OS-zeroed (growing in place would leak the
         stale prefix into what [create] promises is a zero-filled
         store).  Discarding a non-empty file is data loss from the
         caller's point of view, so it is never silent. *)
      let size = (Unix.fstat fd).Unix.st_size in
      if size <> bytes then begin
        if size > 0 then begin
          Wafl_telemetry.Telemetry.incr "pagestore.recreated";
          Printf.eprintf
            "pagestore: %s is %d bytes but %d were requested; recreating it zero-filled \
             (persisted contents discarded)\n%!"
            path size bytes
        end;
        Unix.ftruncate fd 0;
        Unix.ftruncate fd bytes
      end;
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout true [| bytes |]))

let create ?(mapped = false) words =
  if words < 0 then invalid_arg "Pagestore.create: negative size";
  match !mmap_dir with
  | Some dir when mapped && words > 0 ->
    let seq = !mmap_seq in
    incr mmap_seq;
    let path = Filename.concat dir ("ps" ^ string_of_int seq ^ ".bin") in
    let t = map_file ~path words in
    mapped_rev := (seq, path, t) :: !mapped_rev;
    t
  | _ ->
    let a = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout (words * 8) in
    Bigarray.Array1.fill a 0;
    a

(* Annotated: an unannotated accessor would compile polymorphically, as a
   call into the generic C getter instead of one load. *)
let length_bytes (t : t) = Bigarray.Array1.dim t
let words t = length_bytes t / 8
let[@inline] byte (t : t) i = Bigarray.Array1.unsafe_get t i
let[@inline] set_byte (t : t) i v = Bigarray.Array1.unsafe_set t i (v land 0xff)

let word t w =
  let x = get64u t (w * 8) in
  if Sys.big_endian then bswap64 x else x

(* Whole words, then the ragged tail, allocating nothing: [fill] sits
   under every bulk [Bitmap.set_range]/[clear_range]. *)
let fill (t : t) ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > length_bytes t then
    invalid_arg "Pagestore.fill: range out of bounds";
  let b = v land 0xff and stop = pos + len in
  let pattern = Int64.mul (Int64.of_int b) 0x0101010101010101L in
  let i = ref pos in
  while !i + 8 <= stop do
    set64u t !i pattern;
    i := !i + 8
  done;
  while !i < stop do
    Bigarray.Array1.unsafe_set t !i b;
    incr i
  done

let blit ~src ~dst =
  if length_bytes src <> length_bytes dst then invalid_arg "Pagestore.blit: size mismatch";
  Bigarray.Array1.blit src dst

let copy t =
  let c = create (words t) in
  blit ~src:t ~dst:c;
  c

(* Stores are whole words, so word-at-a-time comparison and copies cover
   every byte; native order on both sides keeps the copies byte-exact. *)
let rec equal_from a b i n = i >= n || (get64u a i = get64u b i && equal_from a b (i + 8) n)
let equal a b = length_bytes a = length_bytes b && equal_from a b 0 (length_bytes a)

let of_bytes ?mapped b =
  let n = Bytes.length b in
  if n mod 8 <> 0 then invalid_arg "Pagestore.of_bytes: not whole words";
  let t = create ?mapped (n / 8) in
  for w = 0 to (n / 8) - 1 do
    set64u t (w * 8) (Bytes.get_int64_ne b (w * 8))
  done;
  t

let to_bytes t =
  let b = Bytes.create (length_bytes t) in
  for w = 0 to words t - 1 do
    Bytes.set_int64_ne b (w * 8) (get64u t (w * 8))
  done;
  b
