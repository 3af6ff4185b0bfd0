type backend = Heap | Bigarray

type ba = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Byte-kind view of the little-endian int64-word layout: byte loads and
   stores are immediate ints on both arms (an int64-kind Bigarray would box
   every element read), while the word accessor below assembles the same
   64-bit words the layout defines. *)
type t =
  | Bytes_store of Bytes.t
  | Big_store of ba

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
      let a =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout true [| bytes |])
      in
      Big_store a)

let create ?(backend = Heap) ?(mapped = false) words =
  if words < 0 then invalid_arg "Pagestore.create: negative size";
  match !mmap_dir with
  | Some dir when mapped && words > 0 ->
    let seq = !mmap_seq in
    incr mmap_seq;
    let path = Filename.concat dir ("ps" ^ string_of_int seq ^ ".bin") in
    let t = map_file ~path words in
    mapped_rev := (seq, path, t) :: !mapped_rev;
    t
  | _ -> (
    match backend with
    | Heap -> Bytes_store (Bytes.make (words * 8) '\000')
    | Bigarray ->
      let a =
        Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout (words * 8)
      in
      Bigarray.Array1.fill a 0;
      Big_store a)

let backend = function Bytes_store _ -> Heap | Big_store _ -> Bigarray

let length_bytes = function
  | Bytes_store b -> Bytes.length b
  | Big_store a -> Bigarray.Array1.dim a

let words t = length_bytes t / 8

let[@inline] byte t i =
  match t with
  | Bytes_store b -> Char.code (Bytes.unsafe_get b i)
  | Big_store a -> Bigarray.Array1.unsafe_get a i

let[@inline] set_byte t i v =
  match t with
  | Bytes_store b -> Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff))
  | Big_store a -> Bigarray.Array1.unsafe_set a i (v land 0xff)

let word t w =
  match t with
  | Bytes_store b -> Bytes.get_int64_le b (w * 8)
  | Big_store a ->
    let o = w * 8 in
    let lo =
      Bigarray.Array1.unsafe_get a o
      lor (Bigarray.Array1.unsafe_get a (o + 1) lsl 8)
      lor (Bigarray.Array1.unsafe_get a (o + 2) lsl 16)
      lor (Bigarray.Array1.unsafe_get a (o + 3) lsl 24)
    and hi =
      Bigarray.Array1.unsafe_get a (o + 4)
      lor (Bigarray.Array1.unsafe_get a (o + 5) lsl 8)
      lor (Bigarray.Array1.unsafe_get a (o + 6) lsl 16)
      lor (Bigarray.Array1.unsafe_get a (o + 7) lsl 24)
    in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let fill t ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > length_bytes t then
    invalid_arg "Pagestore.fill: range out of bounds";
  match t with
  | Bytes_store b -> Bytes.fill b pos len (Char.chr (v land 0xff))
  | Big_store a ->
    if len > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub a pos len) (v land 0xff)

let blit ~src ~dst =
  let n = length_bytes src in
  if n <> length_bytes dst then invalid_arg "Pagestore.blit: size mismatch";
  match (src, dst) with
  | Bytes_store s, Bytes_store d -> Bytes.blit s 0 d 0 n
  | Big_store s, Big_store d -> Bigarray.Array1.blit s d
  | _ ->
    for i = 0 to n - 1 do
      set_byte dst i (byte src i)
    done

let copy t =
  let c = create ~backend:(backend t) (words t) in
  blit ~src:t ~dst:c;
  c

let equal a b =
  length_bytes a = length_bytes b
  &&
  match (a, b) with
  | Bytes_store x, Bytes_store y -> Bytes.equal x y
  | _ ->
    let n = length_bytes a in
    let rec go i = i >= n || (byte a i = byte b i && go (i + 1)) in
    go 0

let of_bytes ?backend ?mapped b =
  let n = Bytes.length b in
  if n mod 8 <> 0 then invalid_arg "Pagestore.of_bytes: not whole words";
  let t = create ?backend ?mapped (n / 8) in
  (match t with
  | Bytes_store d -> Bytes.blit b 0 d 0 n
  | Big_store _ ->
    for i = 0 to n - 1 do
      set_byte t i (Char.code (Bytes.unsafe_get b i))
    done);
  t

let to_bytes t =
  let n = length_bytes t in
  match t with
  | Bytes_store b -> Bytes.sub b 0 n
  | Big_store _ ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.unsafe_set b i (Char.unsafe_chr (byte t i))
    done;
    b
