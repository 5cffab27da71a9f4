(** Engine observability: named counters and log-scale latency
    histograms.

    The synthesis layers (scheduling, binding, the pass-pipeline
    engine, the redundancy baseline) report how much work they do
    through a process-global registry of named counters
    (["sched.runs"], ["cache.hits"], ["downgrade.steps"], ...) and
    duration histograms fed by {!Trace.with_span}.  A span's
    cumulative wall-clock time ({!timers}) is its histogram's sum —
    there is one record per span, not a timer beside a histogram.

    Counter cells are {e sharded per domain} (one atomic per shard,
    aggregated on read) so parallel sweep and fault-campaign workers
    bump them without cache-line contention.  Reads ({!counters},
    {!timers}, {!histograms}) are snapshots, exact once the domains
    have been joined.

    Recording is free of observable side effects on synthesis results:
    layers must never branch on telemetry state. *)

val incr : string -> unit
(** [incr name] adds 1 to counter [name], creating it at 0 first. *)

val add : string -> int -> unit
(** [add name n] adds [n] to counter [name]. *)

val counter : string -> int
(** Current value; 0 for a counter never bumped. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val now_ns : unit -> int64
(** The monotonic clock backing {!Trace.with_span}. *)

(** {1 Histograms} *)

type hist = {
  count : int;
  sum_ns : int64;
  p50_ns : float;  (** estimated from log2 buckets, linear in-bucket *)
  p90_ns : float;
  p99_ns : float;
  max_ns : int64;  (** exact *)
}

val observe : string -> int64 -> unit
(** Record one duration (ns) into histogram [name]: a log2-bucketed
    latency histogram ([2^i, 2^(i+1)) ns buckets).  Span completions
    feed these automatically via {!Trace.with_span}. *)

val histogram : string -> hist option
(** Snapshot with quantile estimates; [None] for an unknown or empty
    histogram. *)

val histograms : unit -> (string * hist) list
(** All non-empty histograms, sorted by name. *)

val timers : unit -> (string * int64) list
(** Cumulative nanoseconds per histogram — each entry is that
    histogram's [sum_ns] — sorted by name.  Unlike {!histograms} it
    keeps histograms emptied by {!reset}, with 0. *)

val reset : unit -> unit
(** Zero every counter and histogram (the registry keys survive). *)

(** {1 Rendering} *)

val format_ns : int64 -> string
(** Human units: ["870 ns"], ["12.40 us"], ["3.25 ms"], ["1.200 s"]. *)

val format_ns_f : float -> string
(** {!format_ns} for estimated (fractional) durations — histogram
    quantiles. *)

val render : unit -> string
(** Counters, span totals from {!timers} (human units) and histogram
    quantile rows as an aligned two-column table, empty string when
    nothing was recorded — the [--stats] output of the CLI. *)

(** {1 Building blocks}

    The cells and registry helpers the rest of the observability layer
    ([Metrics]) is built from, so one log2 histogram and one registry
    lock serve both modules. *)

module Registry : sig
  val find_or_create : (string, 'a) Hashtbl.t -> (unit -> 'a) -> string -> 'a
  (** Get the cell under [name], creating it with [make ()] under the
      registry lock on first use.  Lookups of existing cells take no
      lock. *)

  val iter : (string, 'a) Hashtbl.t -> ('a -> unit) -> unit
  (** Visit every cell under the registry lock. *)

  val snapshot : (string, 'a) Hashtbl.t -> ('a -> 'b) -> (string * 'b) list
  (** [(name, value cell)] for every cell, sorted by name. *)
end

module Hist : sig
  type t
  (** A log2-bucketed duration histogram: bucket [i] counts
      observations in [[2^i, 2^(i+1))] ns.  Writers are lock-free
      (atomic bumps, CAS for the max). *)

  val create : unit -> t

  val observe : t -> int64 -> unit
  (** Record one duration; negative values count as 0 and values past
      the native-int range clamp to [max_int]. *)

  val reset : t -> unit

  val stat : t list -> hist
  (** Merge the cells and estimate quantiles: cumulative rank over the
      merged buckets, linear interpolation inside the bucket, capped
      by the exact max.  All zeros for no observations. *)
end
