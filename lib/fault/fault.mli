(** Deterministic, seed-driven fault injection for the device sims.

    A {!t} (the {e plane}) is built from a {!spec} and hands out one
    {!device} handle per modeled device.  Every handle draws from its own
    {!Wafl_util.Rng} substream (split from the plane's seed in creation
    order), so a given [(spec, device id)] pair produces the same fault
    sequence on every run regardless of what other devices do.

    Device sims consult their handle on each modeled I/O via {!write}.
    The handle decides, in order:

    + {e availability} — an offline device fails everything; a degraded
      device doubles its transient-error probability;
    + {e permanent bad ranges} — writes landing in a configured bad range
      always fail (retries never help);
    + {e transient errors} — with probability [transient_p] the write
      fails for a burst of 1..[transient_burst_max] consecutive attempts.
      The retry policy is folded into the model: the device retries up to
      [retry_budget] times with exponential backoff starting at
      [retry_backoff_us]; a burst shorter than the budget succeeds
      (counted in [retries_ok]) and charges the accumulated backoff to
      the device's time penalty, otherwise the write fails;
    + {e torn writes} — with probability [torn_p] the write is
      acknowledged but the page content is garbage ([Written_torn]);
    + {e latency spikes} — with probability [spike_p] the write succeeds
      but charges an extra [spike_us] to the penalty clock.

    Everything is bookkeeping on plain records: no exceptions escape
    {!write}; callers branch on the {!write_result}. *)

type spec = {
  seed : int;
  transient_p : float;  (** per-I/O probability of a transient error *)
  transient_burst_max : int;  (** max consecutive failing attempts per error *)
  torn_p : float;  (** per-I/O probability of a torn (garbage) write *)
  spike_p : float;  (** per-I/O probability of a latency spike *)
  spike_us : float;  (** extra microseconds charged per spike *)
  retry_budget : int;  (** attempts before the device gives up *)
  retry_backoff_us : float;  (** first backoff; doubles per retry *)
  bad_ranges : (int * int * int) list;
      (** [(device, start, len)] permanently failing block ranges, in
          device-local block coordinates *)
  offline_after : (int * int) list;
      (** [(device, ios)]: the device goes {!Offline} once it has seen
          that many I/Os *)
  degraded_after : (int * int) list;
      (** [(device, ios)]: likewise for the {!Degraded} transition *)
  rot_pages : (int * int * int) list;
      (** [(store, page, gen)]: flip bits in 4 KiB page [page] of mapped
          pagestore [ps<store>] once the integrity plane's committed
          generation reaches [gen] — persisted bit-rot the CRC sidecar
          must detect as {e torn} *)
  lost_pages : (int * int * int) list;
      (** [(store, page, gen)]: revert the page to its previous
          generation's bytes at [gen] — a lost write the sidecar must
          classify as {e stale} (data matches the previous CRC) *)
}

val default_spec : spec
(** 1% transient errors in bursts of <= 2 attempts, a retry budget of 6
    with 50us initial backoff (so every transient burst is outlived by
    retries), no torn writes, spikes, bad ranges, or state transitions.
    Seed 42. *)

val spec_of_string : string -> (spec, string) result
(** Parse a comma-separated [key=value] fault spec, e.g.
    ["seed=7,transient=0.05,burst=3,torn=0.01,spike=0.02:400,retries=4,backoff=100,bad=0:1024+64,offline=2@5000,degraded=1@2000,rot=0:1,lost=0:2@2"].
    Unknown keys and malformed values yield [Error msg].  [bad], [offline],
    [degraded], [rot] and [lost] may repeat.  [rot]/[lost] take
    [STORE:PAGE\[@GEN\]]; [GEN] defaults to 1 for [rot] and 2 for [lost]
    (a lost write needs a previous generation to revert to). *)

val spec_to_string : spec -> string
(** Round-trips through {!spec_of_string}. *)

type io_stats = {
  ios : int;  (** writes consulted *)
  injected_transient : int;  (** transient error bursts drawn *)
  retries : int;  (** individual retry attempts *)
  retries_ok : int;  (** bursts outlived by the retry budget *)
  torn : int;  (** acknowledged-but-garbage writes *)
  failed : int;  (** writes that failed permanently *)
  spikes : int;  (** latency spikes *)
  penalty_us : float;  (** accumulated backoff + spike time *)
}

val zero_stats : io_stats
val diff_stats : before:io_stats -> after:io_stats -> io_stats

val add_stats : io_stats -> io_stats -> io_stats
(** Field-wise sum, e.g. plane-wide totals over devices; the inverse of
    {!diff_stats}. *)

type t
(** A fault plane: the spec plus the per-device handle factory. *)

type device
(** Per-device fault state: RNG substream, health, bad ranges, counters. *)

val create : spec -> t
val spec : t -> spec

val device : t -> id:int -> device
(** [device t ~id] creates the handle for device [id].  Handles must be
    created in a fixed order (the RNG substream is split off at creation),
    so call this once per device at attach time, in device-id order. *)

val online : device -> bool
val stats : device -> io_stats

type write_result =
  | Written  (** success (possibly after retries, possibly with a spike) *)
  | Written_torn  (** acknowledged, but the page content is garbage *)
  | Failed  (** permanent failure: offline, bad range, or budget exhausted *)

val write : device -> block:int -> write_result
(** Model one block write at device-local [block].  Updates the handle's
    {!io_stats} and the installed telemetry counters
    ([fault.injected_transient], [fault.retries], [fault.retries_ok],
    [fault.torn_writes], [fault.write_failures], [fault.latency_spikes],
    [fault.offline_transitions], [fault.degraded_transitions]). *)

val range_faulty : device -> start:int -> len:int -> bool
(** Allocation-time probe: does [\[start, start+len)] (device-local)
    overlap a configured permanent bad range, or is the device offline?
    Allocation-free; used by {!Wafl_core.Write_alloc} to quarantine AAs. *)
