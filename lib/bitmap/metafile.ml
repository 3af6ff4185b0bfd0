open Wafl_util
open Wafl_block

type io_stats = { page_writes : int; page_reads : int; flushes : int }

type t = {
  map : Bitmap.t;
  page_bits : int;
  page_shift : int;  (* log2 page_bits, or -1 when page_bits is not a power of 2 *)
  n_pages : int;
  dirty : Bitmap.t;  (* one bit per metafile page *)
  mutable n_dirty : int;
  mutable page_writes : int;
  mutable page_reads : int;
  mutable flushes : int;
}

let create ?(page_bits = Units.bits_per_metafile_block) ~blocks () =
  assert (blocks > 0 && page_bits > 0);
  let n_pages = Bitops.ceil_div blocks page_bits in
  let map = Bitmap.create ~bits:blocks () in
  (* Only the map is durable state worth vouching for; the dirty bitmap
     below is rebuilt from scratch on every mount. *)
  Integrity.track (Bitmap.store map);
  (* Transient state must start from zero explicitly: in a re-entered mmap
     directory the bitmap's backing file may still hold the bits a previous
     process (or a crashed run) left behind. *)
  let dirty = Bitmap.create ~bits:n_pages () in
  Bitmap.clear_range dirty ~start:0 ~len:n_pages;
  {
    map;
    page_bits;
    page_shift =
      (if page_bits land (page_bits - 1) = 0 then Bitops.ctz page_bits else -1);
    n_pages;
    dirty;
    n_dirty = 0;
    page_writes = 0;
    page_reads = 0;
    flushes = 0;
  }

let blocks t = Bitmap.length t.map
let pages t = t.n_pages
let page_bits t = t.page_bits
let store t = Bitmap.store t.map

(* Page of an in-bounds VBN.  Every helper that maps VBNs to pages funnels
   through here so the power-of-two shift (the common case: page sizes are
   powers of two) replaces the division everywhere, bounds checks
   included. *)
let[@inline] page_index t vbn =
  if t.page_shift >= 0 then vbn lsr t.page_shift else vbn / t.page_bits

let page_of_block t vbn =
  if vbn < 0 || vbn >= blocks t then invalid_arg "Metafile: VBN out of bounds";
  page_index t vbn

let mark_dirty t page =
  if not (Bitmap.get t.dirty page) then begin
    Bitmap.set t.dirty page;
    t.n_dirty <- t.n_dirty + 1
  end

let is_allocated t vbn = Bitmap.get t.map vbn

let allocate t vbn =
  if Bitmap.get t.map vbn then invalid_arg "Metafile.allocate: VBN already allocated";
  Bitmap.set t.map vbn;
  mark_dirty t (page_of_block t vbn)

(* Trusted hot-path variant: the caller guarantees [vbn] is currently
   free (harvest rings only hold free blocks, revalidated on epoch
   change), so the already-allocated re-check of {!allocate} is skipped.
   [Bitmap.set] still bounds-checks the index. *)
let[@inline] allocate_harvested t vbn =
  Bitmap.set t.map vbn;
  mark_dirty t (page_index t vbn)

let free t vbn =
  if not (Bitmap.get t.map vbn) then invalid_arg "Metafile.free: VBN already free";
  Bitmap.clear t.map vbn;
  mark_dirty t (page_of_block t vbn)

let allocate_range t ~start ~len =
  if Bitmap.count_set_in t.map ~start ~len <> 0 then
    invalid_arg "Metafile.allocate_range: range not fully free";
  Bitmap.set_range t.map ~start ~len;
  if len > 0 then
    for page = page_index t start to page_index t (start + len - 1) do
      mark_dirty t page
    done

let free_count t ~start ~len = Bitmap.count_clear_in t.map ~start ~len
let free_mask32 t pos = Bitmap.clear_mask32 t.map pos

let harvest_free_into t ~start ~len ~offset ~dst ~pos =
  Bitmap.harvest_clear_into t.map ~start ~len ~offset ~dst ~pos
let used_count t ~start ~len = Bitmap.count_set_in t.map ~start ~len
let free_extents t ~start ~len = Bitmap.free_extents t.map ~start ~len
let free_run_stats t ~start ~len = Bitmap.free_run_stats t.map ~start ~len

let dirty_pages t = t.n_dirty

(* Seal the byte range each dirty page covers before the dirty set is
   cleared.  Guarded on the store actually being integrity-tracked so the
   crash point only appears in runs where sealing happens — anonymous-store
   crash-matrix sequences are unchanged. *)
let seal_dirty t =
  let store = Bitmap.store t.map in
  if t.n_dirty > 0 && Integrity.tracked store then begin
    Wafl_fault.Crash.point "integrity.seal";
    let total_bytes = Pagestore.length_bytes store in
    let rec go from =
      match Bitmap.find_first_set t.dirty ~from with
      | None -> ()
      | Some page ->
        let bit0 = page * t.page_bits in
        let bit1 = min ((page + 1) * t.page_bits) (Bitmap.length t.map) in
        let pos = bit0 / 8 in
        let len = min (Bitops.ceil_div bit1 8) total_bytes - pos in
        Integrity.seal_range store ~pos ~len;
        go (page + 1)
    in
    go 0
  end

let flush t =
  let written = t.n_dirty in
  seal_dirty t;
  t.page_writes <- t.page_writes + written;
  t.flushes <- t.flushes + 1;
  Bitmap.clear_range t.dirty ~start:0 ~len:t.n_pages;
  t.n_dirty <- 0;
  written

let scan_read t ~start ~len =
  if start < 0 || len < 0 || start + len > blocks t then
    invalid_arg "Metafile.scan_read: range out of bounds";
  if len = 0 then 0
  else begin
    let first = page_index t start and last = page_index t (start + len - 1) in
    let n = last - first + 1 in
    t.page_reads <- t.page_reads + n;
    n
  end

let stats t = { page_writes = t.page_writes; page_reads = t.page_reads; flushes = t.flushes }

let snapshot t = Bitmap.copy t.map

let load t image =
  if Bitmap.length image <> blocks t then invalid_arg "Metafile.load: length mismatch";
  Bitmap.blit ~src:image ~dst:t.map;
  (* The blit legitimately rewrote every byte of the map store; re-stamp
     the sidecar state as the committed truth.  Corruption checks against
     the pre-blit persisted bytes must run before [load] — the verified
     remount does ([Mount.restore]). *)
  Integrity.reseal_all (Bitmap.store t.map);
  Bitmap.clear_range t.dirty ~start:0 ~len:t.n_pages;
  t.n_dirty <- 0
