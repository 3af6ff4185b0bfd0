open Wafl_util
open Wafl_bitmap

type violation = { point : string; index : int; what : string }

type result = {
  points : string list;
  runs : int;
  violations : violation list;
}

let pp_violation fmt v =
  Format.fprintf fmt "point %d (%s): %s" v.index v.point v.what

let default_config ?run ~seed () =
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
    ?run ~seed ()

(* Deterministic client workload.  Ops land in [acked] as they are staged:
   staging models the NVRAM ack, so everything in the table at crash time
   is an operation the client believes durable. *)
let stage_ops fs rng ~n ~acked =
  let vol = (Fs.vols fs).(0) in
  for _ = 1 to n do
    let file = Rng.int rng 8 in
    let offset = Rng.int rng 512 in
    Fs.stage_write fs ~vol ~file ~offset;
    Hashtbl.replace acked (file, offset) ()
  done

let run_workload fs ~seed ~warmup_cps ~ops_per_cp ~with_cleaner ~acked =
  let rng = Rng.create ~seed in
  for _ = 1 to warmup_cps do
    stage_ops fs rng ~n:ops_per_cp ~acked;
    ignore (Fs.run_cp fs)
  done;
  stage_ops fs rng ~n:ops_per_cp ~acked;
  if with_cleaner then ignore (Cleaner.clean_fs fs ~aas_per_range:1);
  ignore (Fs.run_cp fs)

(* [check_acked:false] for the pre-replay stage: ops still sitting in the
   NVRAM log are not readable until the replay CP commits them. *)
let check_mounted fs ~acked ~check_acked ~point ~index ~stage acc =
  let acc = ref acc in
  let flag what = acc := { point; index; what } :: !acc in
  (match Iron.check fs with
  | [] -> ()
  | findings ->
    flag
      (Format.asprintf "%s: %d iron finding(s), first: %a" stage (List.length findings)
         Iron.pp_finding (List.hd findings)));
  let mf = Aggregate.metafile (Fs.aggregate fs) in
  let refs = Hashtbl.create 4096 in
  Array.iter
    (fun vol ->
      for vvbn = 0 to Flexvol.blocks vol - 1 do
        match Flexvol.pvbn_of_vvbn vol vvbn with
        | None -> ()
        | Some pvbn ->
          if Hashtbl.mem refs pvbn then
            flag (Printf.sprintf "%s: pvbn %d referenced twice" stage pvbn)
          else Hashtbl.replace refs pvbn ()
      done)
    (Fs.vols fs);
  if check_acked then begin
    let vol = (Fs.vols fs).(0) in
    Hashtbl.iter
      (fun (file, offset) () ->
        match Flexvol.read_file vol ~file ~offset with
        | None ->
          flag (Printf.sprintf "%s: acked op (file %d, off %d) lost" stage file offset)
        | Some vvbn -> (
          match Flexvol.pvbn_of_vvbn vol vvbn with
          | None ->
            flag
              (Printf.sprintf "%s: acked op (file %d, off %d) maps to unmapped vvbn %d" stage
                 file offset vvbn)
          | Some pvbn ->
            if not (Metafile.is_allocated mf pvbn) then
              flag
                (Printf.sprintf "%s: acked op (file %d, off %d) points at free pvbn %d" stage
                   file offset pvbn)))
      acked
  end;
  !acc

(* Per-pass mmap isolation.  Every workload execution (the recording pass
   and each armed run) gets its own wiped subdirectory of the installed
   map directory, so the persisted state a run leaves behind — including
   integrity sidecars and injected corruption — never leaks into the
   next run's files, and the committed generation restarts from zero so
   generation-targeted fault injections fire identically in every run. *)
let wipe_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755

let with_pass_dir k f =
  match Pagestore.mmap_dir_path () with
  | None -> f None
  | Some dir ->
    let sub = Filename.concat dir (Printf.sprintf "run%d" k) in
    wipe_dir sub;
    Pagestore.with_mmap_dir sub (fun () -> f (Some sub))

let run ?config ?run ?(with_cleaner = true) ?(lazy_rebuild = false)
    ?(verify_mount = false) ~seed ~warmup_cps ~ops_per_cp () =
  let config = match config with Some c -> c | None -> default_config ?run ~seed () in
  (* Pass 1: enumerate the dynamic crash-point sequence the workload
     actually reaches — programmatic, never a hand-maintained list. *)
  Wafl_fault.Crash.record ();
  let points =
    Fun.protect ~finally:Wafl_fault.Crash.disarm (fun () ->
        with_pass_dir 0 (fun _ ->
            let acked = Hashtbl.create 1024 in
            run_workload (Fs.create config) ~seed ~warmup_cps ~ops_per_cp ~with_cleaner ~acked;
            Wafl_fault.Crash.recorded ()))
  in
  (* Pass 2..n+1: kill the system at each point in turn, remount from the
     crash image, repair with the container maps as authority, and verify
     the recovery invariants. *)
  let violations = ref [] in
  List.iteri
    (fun index point ->
      with_pass_dir (index + 1) (fun run_dir ->
          let acked = Hashtbl.create 1024 in
          let fs = Fs.create config in
          let crashed =
            Fun.protect ~finally:Wafl_fault.Crash.disarm (fun () ->
                Wafl_fault.Crash.arm ~at:index;
                try
                  run_workload fs ~seed ~warmup_cps ~ops_per_cp ~with_cleaner ~acked;
                  false
                with Wafl_fault.Crash.Crashed _ -> true)
          in
          if not crashed then
            violations :=
              { point; index; what = "armed point never reached (workload nondeterminism?)" }
              :: !violations
          else begin
            let image = Mount.snapshot fs in
            let remount_and_check () =
              let mounted, _timing =
                Mount.mount ~lazy_rebuild ~verify:verify_mount image ~with_topaa:true
              in
              let _findings, _repaired =
                Iron.repair ~authority:Iron.Container_authority mounted
              in
              violations :=
                check_mounted mounted ~acked ~check_acked:false ~point ~index
                  ~stage:"post-repair" !violations;
              ignore (Fs.run_cp mounted);
              violations :=
                check_mounted mounted ~acked ~check_acked:true ~point ~index
                  ~stage:"post-replay-cp" !violations
            in
            match run_dir with
            | None -> remount_and_check ()
            | Some sub ->
              (* Remount in a fresh epoch of the same per-run directory:
                 the store sequence restarts at 0 so [Fs.create] maps the
                 same files the crashed process persisted, and the
                 integrity plane reloads sidecars and superblock from
                 disk — in-memory seals that never made it out die with
                 the crash, exactly like a reboot. *)
              Pagestore.with_mmap_dir sub remount_and_check
          end))
    points;
  { points; runs = List.length points + 1; violations = List.rev !violations }
