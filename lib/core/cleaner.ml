open Wafl_bitmap
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry

type report = { aas_cleaned : int; blocks_relocated : int; blocks_reclaimed : int }

type strategy = Emptiest_first | Fullest_first

let in_use_pvbns aggregate (range : Aggregate.range) aa =
  let mf = Aggregate.metafile aggregate in
  let acc = ref [] in
  Topology.iter_aa_vbns range.Aggregate.topology aa ~f:(fun local ->
      let pvbn = Aggregate.to_global range local in
      if Metafile.is_allocated mf pvbn then acc := pvbn :: !acc);
  List.rev !acc

(* The worst (fullest, but not entirely full) AA per the score array,
   skipping AAs already picked this pass; used by the Fullest_first
   comparison strategy. *)
let fullest_cleanable (range : Aggregate.range) ~picked =
  let best = ref None in
  Array.iteri
    (fun aa score ->
      let capacity = Wafl_aa.Topology.aa_capacity range.Aggregate.topology aa in
      if score < capacity && not picked.(aa) then begin
        match !best with
        | Some (_, s) when s <= score -> ()
        | Some _ | None -> best := Some (aa, score)
      end)
    range.Aggregate.space.Space.scores;
  !best

let clean_fs_body ?(strategy = Emptiest_first) fs ~aas_per_range =
  let aggregate = Fs.aggregate fs in
  let walloc = Fs.write_alloc fs in
  let owners = Iron.owners fs and vols = Fs.vols fs in
  let n = Array.length vols in
  let activemap = Aggregate.activemap aggregate in
  let aas_cleaned = ref 0 and relocated = ref 0 and reclaimed = ref 0 in
  let one = Array.make 1 0 in
  Array.iter
    (fun (r : Aggregate.range) ->
      Wafl_fault.Crash.point "cleaner.range_pass";
      (* cleaner pass counts as a first touch on a lazily mounted range *)
      Space.touch r.Aggregate.space;
      match r.Aggregate.space.Space.cache with
      | None -> ()
      | Some cache ->
        let picked = Array.make (Array.length r.Aggregate.space.Space.scores) false in
        for _ = 1 to aas_per_range do
          let pick =
            match strategy with
            | Emptiest_first -> Cache.take_best cache
            | Fullest_first -> fullest_cleanable r ~picked
          in
          match pick with
          | None -> ()
          | Some (aa, _score) ->
            picked.(aa) <- true;
            incr aas_cleaned;
            let victims = in_use_pvbns aggregate r aa in
            List.iter
              (fun old_pvbn ->
                if not (Activemap.has_pending_free activemap old_pvbn) then begin
                  let owner = owners.(old_pvbn) in
                  if owner >= 0 then begin
                    let vol = vols.(owner mod n) and vvbn = owner / n in
                    (* the allocator's queue may still hold free blocks of
                       the very AA being cleaned; skip those targets (they
                       are queued free again and die at the next CP) *)
                    let rec allocate_outside attempts =
                      if attempts = 0 then None
                      else begin
                        match Write_alloc.allocate_pvbns_into walloc ~dst:one 1 with
                        | 1 ->
                          let candidate = one.(0) in
                          let cr = Aggregate.range_of_pvbn aggregate candidate in
                          if
                            cr.Aggregate.index = r.Aggregate.index
                            && Topology.aa_of_vbn r.Aggregate.topology
                                 (Aggregate.to_local r candidate)
                               = aa
                          then begin
                            Aggregate.queue_free aggregate ~pvbn:candidate;
                            allocate_outside (attempts - 1)
                          end
                          else Some candidate
                        | _ -> None
                      end
                    in
                    match allocate_outside 16 with
                    | Some new_pvbn ->
                      (* same virtual block, new physical home *)
                      let previous = Flexvol.remap_vvbn vol ~vvbn ~pvbn:new_pvbn in
                      assert (previous = old_pvbn);
                      Aggregate.queue_free aggregate ~pvbn:old_pvbn;
                      incr relocated
                    | None -> ()
                  end
                  else begin
                    (* block not owned by any volume (e.g. direct aggregate
                       allocation in tests): drop it outright *)
                    Aggregate.queue_free aggregate ~pvbn:old_pvbn;
                    incr reclaimed
                  end
                end)
              victims
        done)
    (Aggregate.ranges aggregate);
  Telemetry.trace_cleaner_pass ~aas:!aas_cleaned ~relocated:!relocated ~reclaimed:!reclaimed;
  Telemetry.incr "cleaner.passes";
  Telemetry.add "cleaner.aas_cleaned" !aas_cleaned;
  Telemetry.add "cleaner.blocks_relocated" !relocated;
  Telemetry.add "cleaner.blocks_reclaimed" !reclaimed;
  { aas_cleaned = !aas_cleaned; blocks_relocated = !relocated; blocks_reclaimed = !reclaimed }

(* Each cleaner pass over the aggregate is one [Cleaner] span. *)
let clean_fs ?strategy fs ~aas_per_range =
  Telemetry.span_enter Span.Cleaner;
  Fun.protect
    ~finally:(fun () -> Telemetry.span_exit Span.Cleaner)
    (fun () -> clean_fs_body ?strategy fs ~aas_per_range)
