open Wafl_bitmap
open Wafl_telemetry

(* Background pagestore scrubber.

   Storage that is only read when it is needed is storage whose rot is
   only found when it is too late; real filers continuously re-read and
   re-checksum cold blocks.  This module does the same for the persisted
   free-space state: between CPs it verifies a bounded number of
   integrity pages (the rate) against their CRC sidecars, round-robin
   across every tracked store of the system that just committed, and
   self-heals what it finds — the damaged span is quarantined through
   {!Rebuild} and the bitmap-vs-container disagreement settled by
   {!Iron.repair} under container authority, after which the page is
   resealed as the new truth.

   The scrubber runs after every CP of a system whose run sets a scrub
   rate ({!Fs.run_cp}), so it costs nothing on the allocation hot path
   and rides the same cadence as the CP pipeline; the per-CP budget makes
   a full sweep take [total_pages / rate] CPs, a knob directly comparable
   to the rate-limited media scrubs of production systems. *)

type stats = { pages_verified : int; bad_pages : int; healed : int; passes : int }

let zero_stats = { pages_verified = 0; bad_pages = 0; healed = 0; passes = 0 }

type owner = Agg | Vol of Flexvol.t

(* The scannable universe of a system: every integrity-tracked metafile
   store, as (store, owner, n_pages). *)
let tracked_stores fs =
  let aggregate = Fs.aggregate fs in
  let stores =
    (Metafile.store (Aggregate.metafile aggregate), Agg)
    :: Array.to_list
         (Array.map (fun v -> (Metafile.store (Flexvol.metafile v), Vol v)) (Fs.vols fs))
  in
  List.filter_map
    (fun (store, owner) ->
      match Integrity.n_pages store with
      | Some n when n > 0 -> Some (store, owner, n)
      | _ -> None)
    stores

let heal fs store owner page =
  let aggregate = Fs.aggregate fs in
  (match owner with
  | Agg ->
    Rebuild.request aggregate
      (Rebuild.Spaces
         (List.map
            (fun (r : Aggregate.range) -> r.Aggregate.space)
            (Aggregate.ranges_of_pages aggregate [ page ])))
  | Vol vol -> Rebuild.request aggregate (Rebuild.Spaces [ Flexvol.space vol ]));
  (* The page's bits are damaged and there is no replica to read back: the
     container maps are the redundant copy.  Container-authority repair
     re-marks every block they reference and frees the orphans, which
     rewrites the activemap truth the page should have held. *)
  ignore (Iron.repair ~authority:Iron.Container_authority fs);
  Integrity.reseal_page store page

let pass fs ~budget =
  let tracked = tracked_stores fs in
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 tracked in
  if total = 0 || budget <= 0 then zero_stats
  else begin
    Telemetry.span_enter Span.Scrub;
    Fun.protect
      ~finally:(fun () -> Telemetry.span_exit Span.Scrub)
      (fun () ->
        (* The page total can change across remount epochs; the cursor
           is re-wrapped against the current total each pass. *)
        let c = Fs.scrub_cursor fs in
        let start = !c mod total in
        let n = min budget total in
        (* Flatten cursor positions into (store, owner, page) probes. *)
        let probes =
          Array.init n (fun i ->
              let g = (start + i) mod total in
              let rec locate g = function
                | [] -> assert false
                | (store, owner, pages) :: rest ->
                  if g < pages then (store, owner, g) else locate (g - pages) rest
              in
              locate g tracked)
        in
        (* Verify the whole budget before healing anything: a heal
           rebuilds and reseals, and must not change what later probes of
           the same pass read. *)
        let verdicts =
          Array.map (fun (store, _, page) -> Integrity.verify_page store page) probes
        in
        let bad = ref 0 and healed = ref 0 in
        Array.iteri
          (fun i verdict ->
            match verdict with
            | Some Integrity.Torn | Some Integrity.Stale ->
              let store, owner, page = probes.(i) in
              incr bad;
              heal fs store owner page;
              incr healed
            | _ -> ())
          verdicts;
        c := (start + n) mod total;
        Telemetry.incr "scrub.passes";
        Telemetry.add "scrub.pages_verified" n;
        if !bad > 0 then begin
          Telemetry.add "scrub.bad_pages" !bad;
          Telemetry.add "scrub.healed" !healed
        end;
        { pages_verified = n; bad_pages = !bad; healed = !healed; passes = 1 })
  end

let () = Fs.set_scrubber (fun fs ~budget -> ignore (pass fs ~budget))
