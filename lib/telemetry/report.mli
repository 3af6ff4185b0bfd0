(** One-screen plain-text health view of a telemetry instance — the body
    of [waflsim top].

    {!health} is a pure renderer over the instance's span recorder, time
    series and registry: a span table (indented by {!Span.depth}, with the
    currently open phase flagged), the headline rates of the newest
    time-series row (picks/s, search ns/block, free fraction,
    fragmentation, HBPS error bound), a sparkline of the fragmentation
    trend across the retained rows, and — when the instance carries a
    {!Latency.t} with recorded ops — a request-latency pane: overall and
    per-volume p50/p99/p999, SLO burn rates (flagging breaches), and the
    slowest tail exemplars with their blame span stack.  It writes no ANSI
    escapes — the caller decides whether to clear the screen between
    refreshes — so tests can assert on its output directly. *)

val health : ?width:int -> Telemetry.t -> string
(** The full screen, [width] columns wide (default 80, clamped to a
    sane minimum).  Sections with nothing to show (no spans entered, no
    rows sampled) collapse to a single placeholder line. *)

val latency_pane : Latency.t -> string
(** The request-latency pane {!health} shows, on its own: overall and
    per-volume p50/p99/p999, SLO burn rates (flagging breaches) and the
    three slowest tail exemplars with their blame span stack.  A recorder
    that has seen no ops renders as one "no ops recorded" line.  [waflsim]
    prints it as a run's post-run latency summary. *)
