(** Daemon-grade metrics: gauges, rolling-window latency histograms,
    and exposition — the live half of the observability layer.

    {!Telemetry} accumulates {e cumulative} counters and histograms:
    perfect for a finite run read after the domains join,
    useless for answering "what is the p99 {e right now}?" on a daemon
    that has been up for a week.  This module adds the two metric
    shapes a long-running process needs:

    - {b gauges} — named instantaneous values (queue depth, in-flight
      jobs, open connections), set or adjusted atomically from any
      thread;
    - {b rolling-window histograms} ({!Rolling}) — log2-bucketed
      duration histograms over a sliding time window (default 60 s in
      12 slices), so p50/p90/p99 reflect {e recent} traffic and old
      load spikes age out.  Each slice is a {!Telemetry.Hist} cell,
      the same histogram Telemetry keeps per span.

    Gauges and windows live in {!Telemetry.Registry} tables, under
    the one registry lock.  Counters stay in {!Telemetry} (sharded,
    exact); {!snapshot} folds
    them in so one read covers all three families, and the two
    encoders ({!to_prometheus}, {!to_json}) render a snapshot for the
    [--metrics] scrape endpoint and the [stats] API kind.

    Everything here follows the Telemetry contract: recording is free
    of observable side effects on synthesis results, and no layer may
    branch on metrics state. *)

(** {1 Gauges} *)

val gauge_set : string -> int -> unit
(** [gauge_set name v] sets gauge [name] to [v], creating it first. *)

val gauge_add : string -> int -> unit
(** Adjust a gauge by a (possibly negative) delta. *)

val gauge : string -> int
(** Current value; 0 for a gauge never set. *)

val gauges : unit -> (string * int) list
(** All gauges, sorted by name. *)

(** {1 Rolling-window histograms} *)

module Rolling : sig
  type t
  (** A sliding-window log2-bucket histogram: the window is divided
      into equal time slices, each an independently resettable bucket
      array; an observation lands in the slice covering its timestamp
      and a slice is lazily cleared when the window slides past it.
      Writers are lock-free on the hot path (atomic bumps; a mutex is
      taken only to rotate a stale slice, once per slice period). *)

  type stat = {
    count : int;  (** observations inside the window *)
    sum_ns : int64;
    p50_ns : float;  (** log2-bucket estimates, linear in-bucket *)
    p90_ns : float;
    p99_ns : float;
    max_ns : int64;  (** max over the window's live slices *)
    window_ns : int64;  (** the window this stat covers *)
  }

  val create : ?window_ns:int64 -> ?slices:int -> unit -> t
  (** Default: a 60 s window in 12 slices of 5 s.  [slices] min 2,
      [window_ns] must exceed [slices] (one ns per slice). *)

  val observe : ?now_ns:int64 -> t -> int64 -> unit
  (** Record one duration at time [now_ns] (default: the monotonic
      clock).  Observations older than the slice currently covering
      their slot are dropped — they are outside the window. *)

  val stat : ?now_ns:int64 -> t -> stat
  (** Merge the slices alive at [now_ns] and estimate quantiles the
      same way {!Telemetry} does (cumulative rank over log2 buckets,
      linear interpolation, capped by the exact max). *)

  val empty_stat : window_ns:int64 -> stat
end

val window : string -> Rolling.t
(** The process-global registry: get-or-create a rolling histogram
    with the default window under [name]. *)

val observe_window : string -> int64 -> unit
(** [observe_window name ns] = [Rolling.observe (window name) ns]. *)

val windows : unit -> (string * Rolling.stat) list
(** Stats for every registered window, sorted by name. *)

(** {1 Snapshot and exposition} *)

type snapshot = {
  counters : (string * int) list;  (** every registered Telemetry counter *)
  gauges : (string * int) list;
  windows : (string * Rolling.stat) list;
}

val snapshot : unit -> snapshot

val uptime_ns : unit -> int64
(** Monotonic nanoseconds since this module was initialized (process
    start, for practical purposes). *)

val prometheus_name : string -> string
(** Sanitize a dotted metric name for Prometheus: [a-zA-Z0-9_] with
    every other byte mapped to ['_'], prefixed ["rchls_"]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition (format 0.0.4): Telemetry counters as
    [# TYPE ... counter] series suffixed [_total], gauges as gauges,
    rolling windows as summaries in {e seconds} ([_seconds] suffix,
    [quantile] labels 0.5/0.9/0.99, plus [_sum]/[_count]).  Ends with
    a newline; deterministic order. *)

val to_json : snapshot -> Json.t
(** The same snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"windows":{"name":{"count":...,
    "p50_ns":...},...}}]. *)

val reset : unit -> unit
(** Zero every gauge and clear every rolling window (registry keys
    survive, like {!Telemetry.reset}).  Telemetry counters are not
    touched — reset them separately. *)
