(** Configuration of a simulated ONTAP system: the aggregate's physical
    ranges and the FlexVols layered on it (§2.1). *)

type media =
  | Hdd of Wafl_device.Profile.hdd
  | Ssd of Wafl_device.Profile.ssd
  | Smr of Wafl_device.Profile.smr

type raid_group_spec = {
  media : media;
  data_devices : int;
  parity_devices : int;
  device_blocks : int;   (** 4KiB blocks per device *)
  aa_stripes : int option;
      (** AA size override; [None] picks the media default (§3.2) *)
}

type object_range_spec = {
  profile : Wafl_device.Profile.object_store;
  blocks : int;
  aa_blocks : int option;  (** default: 32k *)
}

type allocation_policy =
  | Best_aa        (** AA cache enabled: always the emptiest AA (§3.1) *)
  | Random_aa      (** cache disabled: uniformly random AA — the paper's
                       baseline in §4.1 *)
  | First_fit      (** lowest-numbered AA with any free space — the classic
                       linear-scan strawman *)

type vol_spec = {
  name : string;
  blocks : int;               (** virtual VBN space size *)
  aa_blocks : int option;     (** default 32k *)
  policy : allocation_policy; (** for virtual VBN selection *)
}

type stream_spec = {
  temp_classes : int;
      (** write-temperature classes the allocator routes separately:
          1 = no segregation (default), 2 = hot/other, 3 = hot/warm/cold,
          4 = hot/warm/cold/metafile *)
  ssd_streams : int;
      (** write streams each SSD FTL is created with (1..8); the device's
          open-erase-block budget is partitioned across them *)
  wear_bias : int;
      (** wear-aware AA scoring strength: each wear bin above the device
          minimum costs an AA [wear_bias] score units at cache-update time
          (0 = wear-blind, the default) *)
  meta_file : int option;
      (** file id treated as metafile traffic (routed to the coldest /
          dedicated class) regardless of inferred temperature *)
}

val default_streams : stream_spec
(** [{temp_classes = 1; ssd_streams = 1; wear_bias = 0; meta_file = None}] —
    exactly the pre-segregation behavior. *)

(** {1 Run configuration}

    How one run executes, as opposed to what system it builds: the eight
    settings [waflsim] exposes as flags.  Every system carries its run in
    its {!t}, so nothing about a run is process-wide: two systems built
    with different runs in one process behave as their own runs say. *)

type run = {
  mmap_dir : string option;
      (** [--mmap]: file-map the durable page stores under this directory
          — the map session itself ({!Wafl_bitmap.Pagestore.with_mmap_dir})
          is opened by whoever drives the run; [None] keeps every store
          anonymous *)
  jobs : int;  (** [--jobs]: domains of the system's scan pool *)
  alloc_domains : int;  (** [--alloc-domains]: domains of its allocation pool *)
  scrub_rate : int;  (** [--scrub-rate]: pages scrubbed after every CP; 0 = off *)
  faults : Wafl_fault.Fault.spec option;  (** [--fault-spec] *)
  streams : stream_spec;
      (** [--temp-classes], [--streams], [--wear-bias]; [meta_file] has no
          flag *)
}

val default_run : run
(** Anonymous stores, serial scans and allocation, no scrubber, no faults,
    {!default_streams}. *)

type run_error =
  | Jobs_below_one of int
  | Alloc_domains_below_one of int
  | Scrub_rate_negative of int
  | Scrub_without_mmap of int
      (** only file-mapped stores carry the sidecars a scrub verifies *)
  | Temp_classes_out_of_range of int  (** outside 1..4 *)
  | Streams_out_of_range of int  (** outside 1..8 *)
  | Wear_bias_out_of_range of int  (** outside 0..255 *)
  | Empty_mmap_path

val validate : run -> (run, run_error) result
(** The one range check of a run; never raises. *)

val run_error_to_string : run_error -> string
(** Names the offending flag and its legal range. *)

val run_args : run -> string list
(** The flags that reproduce the run, as an argument vector ([meta_file]
    has no flag and is not included; [--mmap] appears only when set). *)

val run_to_string : run -> string
(** {!run_args} as one shell line, words quoted only where a shell would
    split or expand them. *)

type t = {
  raid_groups : raid_group_spec list;
  object_ranges : object_range_spec list;
  vols : vol_spec list;
  aggregate_policy : allocation_policy;
  rg_score_threshold : int option;
      (** skip a RAID group whose best AA score is below this (§3.3.1) *)
  run : run;
  seed : int;
}

val default_raid_group : raid_group_spec
(** 6+1 HDD, 64k blocks/device, default AA sizing. *)

val default_vol : name:string -> blocks:int -> vol_spec

val make :
  ?raid_groups:raid_group_spec list ->
  ?object_ranges:object_range_spec list ->
  ?vols:vol_spec list ->
  ?aggregate_policy:allocation_policy ->
  ?rg_score_threshold:int ->
  ?run:run ->
  ?seed:int ->
  unit ->
  t
(** [run] defaults to {!default_run}.
    @raise Invalid_argument when {!validate} rejects [run]. *)

val aa_stripes_for : raid_group_spec -> int
(** The spec's override or the §3.2 media default, clamped to the group's
    stripe count. *)

val media_name : media -> string
