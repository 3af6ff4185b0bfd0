open Wafl_bitmap
open Wafl_block

let score_of_aa ~base topology metafile i =
  let extents = Topology.extents_of_aa topology i in
  List.fold_left
    (fun acc e ->
      acc + Metafile.free_count metafile ~start:(base + Extent.start e) ~len:(Extent.len e))
    0 extents

let all_scores topology metafile =
  Array.init (Topology.aa_count topology) (score_of_aa ~base:0 topology metafile)

(* Wear-aware scoring term (wpmfs-style wear binning): wear counts are
   collapsed into coarse bins of [quantum] erases, and every bin an AA
   sits above the device minimum costs it [bias] score units in the
   cache.  Binning keeps the ordering stable — AAs within one bin still
   compete purely on emptiness, so allocation only detours around spans
   that are measurably more worn.  The adjusted value feeds the pick
   cache only, never the [scores] free-count array ({!apply} asserts that
   array stays a pure free count); an AA with any free space is clamped
   to a score of at least 1 so wear can demote it but never hide it. *)
let wear_quantum = 4

let wear_adjusted ~bias ~wear ~min_wear ~score =
  if bias <= 0 || score <= 0 then score
  else begin
    let bins = (wear - min_wear) / wear_quantum in
    if bins <= 0 then score else max 1 (score - (bias * bins))
  end

(* Preallocated per-AA accumulator: a note_alloc/note_free is one array
   bump (plus first-touch bookkeeping), with no hashing and no heap
   allocation — it runs once per block on the allocation hot path.
   [touched] compacts the AAs with a pending entry so the CP-boundary
   apply only visits what changed; [member] keeps it duplicate-free even
   when an AA's net change crosses zero and back. *)
type delta = {
  topology : Topology.t;
  change : int array;    (* net pending change per AA *)
  touched : int array;   (* AAs with an entry, unordered, [0, n_touched) *)
  member : Bytes.t;      (* '\001' when the AA is listed in [touched] *)
  mutable n_touched : int;
}

let create_delta topology =
  let n = Topology.aa_count topology in
  {
    topology;
    change = Array.make n 0;
    touched = Array.make n 0;
    member = Bytes.make n '\000';
    n_touched = 0;
  }

let[@inline] bump_aa d aa amount =
  if Bytes.unsafe_get d.member aa = '\000' then begin
    Bytes.unsafe_set d.member aa '\001';
    d.touched.(d.n_touched) <- aa;
    d.n_touched <- d.n_touched + 1
  end;
  d.change.(aa) <- d.change.(aa) + amount

let bump d vbn amount = bump_aa d (Topology.aa_of_vbn d.topology vbn) amount

let note_alloc d ~vbn = bump d vbn (-1)
let note_free d ~vbn = bump d vbn 1

(* Hot-path variant for callers that already know the AA (harvest rings
   carry whole-AA batches): skips the VBN->AA division of {!note_alloc}. *)
let[@inline] note_alloc_aa d ~aa =
  if aa < 0 || aa >= Array.length d.change then invalid_arg "Score.note_alloc_aa";
  bump_aa d aa (-1)

let is_empty d =
  let rec go k = k >= d.n_touched || (d.change.(d.touched.(k)) = 0 && go (k + 1)) in
  go 0

let mem d ~aa = aa >= 0 && aa < Array.length d.change && d.change.(aa) <> 0

let fold d ~init ~f =
  let acc = ref init in
  for k = 0 to d.n_touched - 1 do
    let aa = d.touched.(k) in
    let change = d.change.(aa) in
    if change <> 0 then acc := f !acc ~aa ~change
  done;
  !acc

let clear d =
  for k = 0 to d.n_touched - 1 do
    let aa = d.touched.(k) in
    d.change.(aa) <- 0;
    Bytes.unsafe_set d.member aa '\000'
  done;
  d.n_touched <- 0

(* Newest touch first: the order the cache has always been handed these
   updates in, which its HBPS list admission depends on. *)
let apply d scores ~f =
  for k = d.n_touched - 1 downto 0 do
    let aa = d.touched.(k) in
    let change = d.change.(aa) in
    if change <> 0 then begin
      let updated = scores.(aa) + change in
      assert (updated >= 0 && updated <= Topology.aa_capacity d.topology aa);
      scores.(aa) <- updated;
      f aa updated
    end
  done;
  clear d
