open Wafl_util
module Telemetry = Wafl_telemetry.Telemetry

(* Persisted-state integrity plane.


   When pagestores are file-mapped ([--mmap DIR]) the bytes on
   disk ARE the free-space state, and nothing in the mmap path itself can
   tell a faithfully persisted page from one hit by bit-rot or a lost
   write — mmap acks nothing.  This module gives every {e tracked} store
   (the bitmap-metafile map stores; scratch structures like dirty maps
   and pending sets are rebuilt anyway) a CRC-32 sidecar: one checksum +
   previous-generation checksum + CP-generation stamp per 4 KiB page,
   persisted next to [ps<seq>.bin] as [ps<seq>.crc], with a tiny
   [superblock.bin] carrying the committed generation.

   Sealing happens where the data changes hands: [Metafile.flush] reseals
   the pages it dirtied (stamping [committed + 1]) and [cp_commit] —
   called at the end of every CP — persists the dirty sidecars and then
   advances the superblock.  A crash between the two leaves sidecars
   {e ahead} of the superblock, which remount verification recognizes and
   accepts; a crash before the sidecar write leaves data {e ahead} of its
   sidecar, which verification reports as torn and quarantines.

   Classification of a page against its sidecar entry:
   - CRC matches, generation <= committed: {e intact};
   - CRC matches, generation  > committed: {e ahead} (crash between
     sidecar persist and superblock write) — resealed and accepted;
   - CRC mismatch but the page matches the {e previous} generation's
     CRC: {e stale} — a lost write (the device acked a write it dropped);
   - neither: {e torn} (bit-rot, partial write).

   All state is keyed to the pagestore map-directory epoch: installing a
   directory (or remounting under a nested [with_mmap_dir]) starts a
   fresh epoch, and the first call after that reloads the superblock and
   sidecars from disk — in-memory seals from the previous epoch are
   deliberately discarded, exactly like a real reboot. *)

type page_state = Intact | Ahead | Torn | Stale

let page_size = Wafl_block.Units.block_size

type entry = {
  ord : int;  (* tracked-store ordinal: 0 = first tracked store, ... *)
  seq : int;  (* pagestore file sequence (ps<seq>.bin) *)
  path : string;
  store : Pagestore.t;
  n_pages : int;
  crc : int32 array;  (* sealed CRC per page *)
  prev : int32 array;  (* previous generation's CRC per page *)
  gen : int array;  (* generation stamped at seal *)
  sealed_now : Bytes.t;  (* pages sealed since the last cp_commit *)
  mutable sidecar_loaded : bool;  (* a valid sidecar was read at track time *)
  mutable sidecar_dirty : bool;
  mutable sidecar_fd : Unix.file_descr option;  (* held open across commits *)
}

type rot_arm = { r_ord : int; r_page : int; r_gen : int; mutable r_fired : bool }

type lost_arm = {
  l_ord : int;
  l_page : int;
  l_gen : int;
  mutable shadow : Bytes.t option;  (* page bytes as of the last commit *)
  mutable l_fired : bool;
}

type state = {
  st_epoch : int;
  dir : string;
  mutable committed : int;
  mutable entries_rev : entry list;
  mutable n_entries : int;
  mutable any_sealed : bool;
  mutable super_fd : Unix.file_descr option;  (* held open across commits *)
  mutable rot_arms : rot_arm list;
  mutable lost_arms : lost_arm list;
  mutable armed : bool;  (* a fault spec was handed over this epoch *)
}

let state : state option ref = ref None
let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* --- sidecar / superblock serialization ------------------------------- *)

let superblock_path dir = Filename.concat dir "superblock.bin"
let sidecar_path dir seq = Filename.concat dir (Printf.sprintf "ps%d.crc" seq)

let bytes_crc b len =
  Checksum.crc32_get ~get:(fun i -> Char.code (Bytes.unsafe_get b i)) ~pos:0 ~len

let read_file path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          let b = Bytes.create n in
          really_input ic b 0 n;
          Some b)
    with _ -> None

(* Sidecars and the superblock are rewritten whole on every CP commit, so
   their descriptors are kept open across commits — an open/close pair per
   small file per CP is most of the persist cost otherwise.  [get_fd]
   memoizes the descriptor through a [file_descr option ref]-style setter. *)
let fd_write_whole fd b =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let open_rewrite path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let load_superblock dir =
  match read_file (superblock_path dir) with
  | Some b
    when Bytes.length b = 20
         && Bytes.sub_string b 0 8 = "WAFLSUP1"
         && Bytes.get_int32_le b 16 = bytes_crc b 16 ->
    Int64.to_int (Bytes.get_int64_le b 8)
  | _ -> 0

let superblock_bytes committed =
  let b = Bytes.create 20 in
  Bytes.blit_string "WAFLSUP1" 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int committed);
  Bytes.set_int32_le b 16 (bytes_crc b 16);
  b

let sidecar_bytes e =
  let n = e.n_pages in
  let len = 12 + (16 * n) + 4 in
  let b = Bytes.create len in
  Bytes.blit_string "WAFLCRC1" 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int n);
  for p = 0 to n - 1 do
    let o = 12 + (16 * p) in
    Bytes.set_int32_le b o e.crc.(p);
    Bytes.set_int32_le b (o + 4) e.prev.(p);
    Bytes.set_int64_le b (o + 8) (Int64.of_int e.gen.(p))
  done;
  Bytes.set_int32_le b (len - 4) (bytes_crc b (len - 4));
  b

let write_superblock s committed =
  let fd =
    match s.super_fd with
    | Some fd -> fd
    | None ->
      let fd = open_rewrite (superblock_path s.dir) in
      s.super_fd <- Some fd;
      fd
  in
  fd_write_whole fd (superblock_bytes committed)

let write_sidecar dir e =
  let fd =
    match e.sidecar_fd with
    | Some fd -> fd
    | None ->
      let fd = open_rewrite (sidecar_path dir e.seq) in
      e.sidecar_fd <- Some fd;
      fd
  in
  fd_write_whole fd (sidecar_bytes e)

(* An invalid sidecar (bad magic, wrong page count, bad trailer CRC) is
   treated exactly like a missing one: the store is unverifiable. *)
let load_sidecar dir seq n_pages =
  match read_file (sidecar_path dir seq) with
  | Some b
    when Bytes.length b = 12 + (16 * n_pages) + 4
         && Bytes.sub_string b 0 8 = "WAFLCRC1"
         && Bytes.get_int32_le b 8 = Int32.of_int n_pages
         && Bytes.get_int32_le b (Bytes.length b - 4) = bytes_crc b (Bytes.length b - 4) ->
    let crc = Array.make n_pages 0l in
    let prev = Array.make n_pages 0l in
    let gen = Array.make n_pages 0 in
    for p = 0 to n_pages - 1 do
      let o = 12 + (16 * p) in
      crc.(p) <- Bytes.get_int32_le b o;
      prev.(p) <- Bytes.get_int32_le b (o + 4);
      gen.(p) <- Int64.to_int (Bytes.get_int64_le b (o + 8))
    done;
    Some (crc, prev, gen)
  | _ -> None

(* --- epoch-keyed state ------------------------------------------------- *)

let arm_injections (spec : Wafl_fault.Fault.spec) committed =
  (* Arms whose generation is already committed can never fire in this
     epoch — that is what keeps a post-remount replay CP (running at a
     higher generation) from re-injecting the same damage. *)
  let rot =
    List.filter_map
      (fun (s, p, g) ->
        if g > committed then Some { r_ord = s; r_page = p; r_gen = g; r_fired = false }
        else None)
      spec.Wafl_fault.Fault.rot_pages
  in
  let lost =
    List.filter_map
      (fun (s, p, g) ->
        if g > committed then
          Some { l_ord = s; l_page = p; l_gen = g; shadow = None; l_fired = false }
        else None)
      spec.Wafl_fault.Fault.lost_pages
  in
  (rot, lost)

(* Descriptors belong to the epoch that opened them: close them whenever
   the state they live in is discarded (the paths themselves may be reused
   by the next epoch in the same directory). *)
let close_state_fds s =
  List.iter
    (fun e ->
      match e.sidecar_fd with
      | Some fd ->
        close_fd fd;
        e.sidecar_fd <- None
      | None -> ())
    s.entries_rev;
  match s.super_fd with
  | Some fd ->
    close_fd fd;
    s.super_fd <- None
  | None -> ()

let drop_state () =
  Option.iter close_state_fds !state;
  state := None

let sync () =
  if not !enabled_flag then None
  else
    match Pagestore.mmap_dir_path () with
    | None ->
      drop_state ();
      None
    | Some dir -> (
      let ep = Pagestore.mmap_epoch () in
      match !state with
      | Some s when s.st_epoch = ep -> Some s
      | _ ->
        Option.iter close_state_fds !state;
        let committed = load_superblock dir in
        let s =
          {
            st_epoch = ep;
            dir;
            committed;
            entries_rev = [];
            n_entries = 0;
            any_sealed = false;
            super_fd = None;
            rot_arms = [];
            lost_arms = [];
            armed = false;
          }
        in
        state := Some s;
        Some s)

let find_entry s store = List.find_opt (fun e -> e.store == store) s.entries_rev
let entry_of_ord s ord = List.find_opt (fun e -> e.ord = ord) s.entries_rev

let committed_generation () = match sync () with None -> 0 | Some s -> s.committed
let tracked store = match sync () with None -> false | Some s -> find_entry s store <> None

(* --- page CRCs --------------------------------------------------------- *)

let page_len store p =
  let bytes = Pagestore.length_bytes store in
  min page_size (bytes - (p * page_size))

let page_crc store p =
  Checksum.crc32_get ~get:(Pagestore.byte store) ~pos:(p * page_size) ~len:(page_len store p)

let copy_page store p =
  let len = page_len store p in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Pagestore.byte store ((p * page_size) + i)))
  done;
  b

let restore_page store p b =
  for i = 0 to Bytes.length b - 1 do
    Pagestore.set_byte store ((p * page_size) + i) (Char.code (Bytes.unsafe_get b i))
  done

let n_pages store =
  match sync () with
  | None -> None
  | Some s -> Option.map (fun e -> e.n_pages) (find_entry s store)

(* --- tracking ---------------------------------------------------------- *)

let track store =
  match sync () with
  | None -> ()
  | Some s -> (
    match Pagestore.mapped_path store with
    | None -> ()
    | Some (seq, path) ->
      if find_entry s store = None then begin
        let n_pages = Bitops.ceil_div (Pagestore.length_bytes store) page_size in
        let ord = s.n_entries in
        let e =
          match load_sidecar s.dir seq n_pages with
          | Some (crc, prev, gen) ->
            {
              ord;
              seq;
              path;
              store;
              n_pages;
              crc;
              prev;
              gen;
              sealed_now = Bytes.make n_pages '\000';
              sidecar_loaded = true;
              sidecar_dirty = false;
              sidecar_fd = None;
            }
          | None ->
            (* No (valid) sidecar: seal what is there now at the committed
               generation.  For a fresh store that is the zero image; for a
               remount it means the store is unverifiable this once —
               verification reports it as such rather than guessing. *)
            let crc = Array.init n_pages (fun p -> page_crc store p) in
            {
              ord;
              seq;
              path;
              store;
              n_pages;
              crc;
              prev = Array.copy crc;
              gen = Array.make n_pages s.committed;
              sealed_now = Bytes.make n_pages '\000';
              sidecar_loaded = false;
              sidecar_dirty = true;
              sidecar_fd = None;
            }
        in
        s.entries_rev <- e :: s.entries_rev;
        s.n_entries <- ord + 1;
        List.iter
          (fun a ->
            if a.l_ord = ord && a.l_page < n_pages && a.shadow = None then
              a.shadow <- Some (copy_page store a.l_page))
          s.lost_arms
      end)

(* An aggregate hands its run's fault spec over when it attaches its fault
   plane.  Arms are built once per epoch, against the generation the epoch
   loaded: a remount that builds a second aggregate in the same epoch must
   not re-arm what already fired.  Stores tracked before the hand-over
   (the aggregate's own) get their lost-write shadows here, as [track]
   gives them to stores tracked after it. *)
let arm spec =
  match sync () with
  | Some s when not s.armed ->
    let rot, lost = arm_injections spec s.committed in
    List.iter
      (fun a ->
        match entry_of_ord s a.l_ord with
        | Some e when a.l_page < e.n_pages -> a.shadow <- Some (copy_page e.store a.l_page)
        | _ -> ())
      lost;
    s.rot_arms <- rot;
    s.lost_arms <- lost;
    s.armed <- true
  | _ -> ()

(* --- sealing ----------------------------------------------------------- *)

(* Sealing is deferred: a flush only {e marks} the pages its dirty ranges
   cover, and the CRCs are computed once per page at [cp_commit], over the
   bytes that commit actually persists.  A CP re-flushes the same hot page
   many times; checksumming it on every flush is wasted work, since only
   the committed image is ever vouched for (the in-memory seal state dies
   with a crash either way). *)
let seal_pages s e ~first ~last =
  for p = max 0 first to min last (e.n_pages - 1) do
    Bytes.set e.sealed_now p '\001'
  done;
  e.sidecar_dirty <- true;
  s.any_sealed <- true

(* The commit-time sweep: for every page sealed this cycle, rotate [prev]
   to the last committed CRC (so a lost write reverting the page to that
   image classifies as stale), checksum the bytes being committed, and
   stamp the new generation. *)
let commit_seals s =
  List.iter
    (fun e ->
      if e.sidecar_dirty then
        for p = 0 to e.n_pages - 1 do
          if Bytes.get e.sealed_now p <> '\000' then begin
            e.prev.(p) <- e.crc.(p);
            e.crc.(p) <- page_crc e.store p;
            e.gen.(p) <- s.committed + 1
          end
        done)
    s.entries_rev

let seal_range store ~pos ~len =
  if len > 0 then
    match sync () with
    | None -> ()
    | Some s -> (
      match find_entry s store with
      | None -> ()
      | Some e ->
        seal_pages s e ~first:(pos / page_size) ~last:((pos + len - 1) / page_size))

(* Re-stamp a page as the committed truth: CRC of the bytes as they are,
   generation [committed], no pending previous image.  This is the heal
   step after a repair rewrote the page from container authority, and the
   blanket reseal after [Metafile.load] blits a restored image over the
   whole store. *)
let reseal_entry_page s e p =
  e.crc.(p) <- page_crc e.store p;
  e.prev.(p) <- e.crc.(p);
  e.gen.(p) <- s.committed;
  Bytes.set e.sealed_now p '\000';
  e.sidecar_dirty <- true

let reseal_page store p =
  match sync () with
  | None -> ()
  | Some s -> (
    match find_entry s store with
    | None -> ()
    | Some e -> if p >= 0 && p < e.n_pages then reseal_entry_page s e p)

let reseal_all store =
  match sync () with
  | None -> ()
  | Some s -> (
    match find_entry s store with
    | None -> ()
    | Some e ->
      for p = 0 to e.n_pages - 1 do
        reseal_entry_page s e p
      done)

(* --- verification ------------------------------------------------------ *)

let classify s e p =
  let c = page_crc e.store p in
  if c = e.crc.(p) then if e.gen.(p) > s.committed then Ahead else Intact
  else if c = e.prev.(p) then Stale
  else Torn

let verify_page store p =
  match sync () with
  | None -> None
  | Some s -> (
    match find_entry s store with
    | None -> None
    | Some e -> if p < 0 || p >= e.n_pages then None else Some (classify s e p))

type store_report = {
  ord : int;
  seq : int;
  path : string;
  store : Pagestore.t;
  pages : int;
  torn : int list;
  stale : int list;
  ahead : int;
  sidecar_loaded : bool;
}

let verify_entry s e =
  let torn = ref [] and stale = ref [] and ahead = ref 0 in
  for p = e.n_pages - 1 downto 0 do
    match classify s e p with
    | Intact -> ()
    | Ahead ->
      (* The data and its sidecar both made it; only the superblock write
         was lost.  Accept the page by folding it into the committed
         generation. *)
      incr ahead;
      reseal_entry_page s e p
    | Torn -> torn := p :: !torn
    | Stale -> stale := p :: !stale
  done;
  if not e.sidecar_loaded then Telemetry.incr "integrity.unverified_stores";
  {
    ord = e.ord;
    seq = e.seq;
    path = e.path;
    store = e.store;
    pages = e.n_pages;
    torn = !torn;
    stale = !stale;
    ahead = !ahead;
    sidecar_loaded = e.sidecar_loaded;
  }

let verify_store store =
  match sync () with
  | None -> None
  | Some s -> Option.map (verify_entry s) (find_entry s store)

(* --- CP commit: persist, advance, inject ------------------------------- *)

let inject s =
  List.iter
    (fun a ->
      if (not a.r_fired) && a.r_gen = s.committed then
        match entry_of_ord s a.r_ord with
        | Some e when a.r_page >= 0 && a.r_page < e.n_pages ->
          a.r_fired <- true;
          (* Bit-rot: flip bits in the persisted page behind the sealed
             CRC's back.  The page now matches neither its own nor the
             previous generation's checksum — torn. *)
          let base = a.r_page * page_size in
          let len = min 8 (page_len e.store a.r_page) in
          for i = base to base + len - 1 do
            Pagestore.set_byte e.store i (Pagestore.byte e.store i lxor 0x5a)
          done;
          Telemetry.incr "integrity.rot_injected"
        | _ -> a.r_fired <- true)
    s.rot_arms;
  List.iter
    (fun a ->
      if (not a.l_fired) && a.l_gen = s.committed then
        match (entry_of_ord s a.l_ord, a.shadow) with
        | Some e, Some shadow
          when a.l_page >= 0
               && a.l_page < e.n_pages
               && Bytes.get e.sealed_now a.l_page <> '\000' ->
          a.l_fired <- true;
          (* Lost write: the device acked this generation's page write but
             never put it on the platter — the bytes revert to the previous
             commit's image, which is exactly what [prev] checksums. *)
          restore_page e.store a.l_page shadow;
          Telemetry.incr "integrity.lost_injected"
        | _ -> a.l_fired <- true)
    s.lost_arms

let refresh_shadows s =
  List.iter
    (fun a ->
      if not a.l_fired then
        match entry_of_ord s a.l_ord with
        | Some e when a.l_page >= 0 && a.l_page < e.n_pages ->
          a.shadow <- Some (copy_page e.store a.l_page)
        | _ -> ())
    s.lost_arms

let cp_commit () =
  match sync () with
  | None -> ()
  | Some s ->
    let dirty = List.exists (fun e -> e.sidecar_dirty) s.entries_rev in
    if s.any_sealed || dirty then begin
      commit_seals s;
      (* Crash here: data pages already hit the mapped files but their
         sidecars did not — remount verification sees them as torn. *)
      Wafl_fault.Crash.point "integrity.persist";
      List.iter
        (fun e ->
          if e.sidecar_dirty then begin
            write_sidecar s.dir e;
            e.sidecar_dirty <- false;
            Telemetry.incr "integrity.sidecar_writes"
          end)
        s.entries_rev;
      (* Crash here: sidecars are ahead of the superblock — remount
         verification classifies those pages as ahead and accepts them. *)
      Wafl_fault.Crash.point "integrity.superblock";
      let next = s.committed + 1 in
      write_superblock s next;
      s.committed <- next;
      inject s;
      refresh_shadows s;
      List.iter
        (fun e -> Bytes.fill e.sealed_now 0 (Bytes.length e.sealed_now) '\000')
        s.entries_rev;
      s.any_sealed <- false
    end
