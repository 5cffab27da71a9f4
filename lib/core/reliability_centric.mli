(** The paper's reliability-centric synthesis algorithm (Figure 6).

    Starting from the most reliable version for every operation, the
    algorithm:

    + meets the latency bound by repeatedly picking the
      highest-delay victim on the current critical path and moving it
      to a faster (usually less reliable) version (lines 7–12);
    + updates resource sharing and, when the area bound is still
      violated but latency slack remains, re-schedules at larger
      latencies up to the bound so more operations can share instances
      (lines 15–21);
    + meets the area bound by repeatedly picking the biggest-area
      victim version and moving it — together with every operation
      sharing its instance — to a smaller version that is not slower
      (lines 23–28);
    + reports the design and its total reliability, or that no
      solution exists under the given bounds (lines 29–30). *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library

type failure = Engine.failure =
  | Latency_infeasible of { best_achievable : int }
      (** every fastest version is in use and the critical path still
          exceeds the bound *)
  | Area_infeasible of { best_achieved : int }
      (** all downgrades exhausted with the area still over the bound *)
  | Scheduling_error of string

val pp_failure : Format.formatter -> failure -> unit

type strategy = [ `Figure6 | `Bottom_up | `Best ]
(** [`Figure6]: the paper's top-down greedy (start most-reliable,
    downgrade victims).  [`Bottom_up]: start from the fastest versions
    and upgrade reliability under the bounds.  [`Best] (default): run
    both and keep the more reliable feasible design. *)

val synthesize :
  ?scheduler:Design.scheduler ->
  ?refine:bool ->
  ?strategy:strategy ->
  ?cache:Engine.cache ->
  ?domains:int ->
  ?certificate:(int * int) ref ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Design.t, failure) result
(** Run the algorithm under latency bound [ld] (cycles) and area bound
    [ad] (units).  Raises [Invalid_argument] on non-positive bounds or
    if the library lacks versions for a class used by the graph.

    Extensions beyond the strict Figure-6 greedy (all documented, all
    needed to reach the feasible points the paper's own examples
    exhibit — see EXPERIMENTS.md):

    - a {e recovery stage}: when line-26 downgrades (smaller and not
      slower) are exhausted with the area still over the bound, slower
      smaller versions are also considered for single victims,
      provided the latency bound still holds and area shrinks;
    - a {e refinement pass} (disable with [~refine:false]): once both
      bounds are met, operations are greedily moved back to more
      reliable versions wherever the remaining slack allows;
    - the [`Bottom_up] starting point, combined by [`Best].

    This is a thin driver over the pass-pipeline engine: see {!Engine}
    for the stage decomposition, the memoized evaluation cache, the
    telemetry counters, the [engine.*] decision trace instants, and
    the [certificate] contract (the exact interval of area bounds
    proven to return the identical result). *)

val most_reliable_assignment : Dfg.t -> Library.t -> Dfg.node -> Resource.t
(** The initial allocation (line 3). *)
