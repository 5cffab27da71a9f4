(** Monte-Carlo single-event-upset (SEU) injection campaigns on gate
    netlists.

    For each candidate node (gate output), random input vectors are
    simulated fault-free, the node's value is then flipped and the
    logic after it re-evaluated, and the fraction of vectors for which
    any primary output differs estimates the node's *logical derating*
    (1 − logical-masking probability).  This substitutes for the
    paper's fault-injection reference [8]; electrical and
    latching-window masking, which need analog waveforms we cannot
    simulate, are applied as analytic derating constants in {!Ser}.

    The production engine ({!Campaign.run}) is bit-parallel (63 vectors
    per sweep via {!Rchls_netlist.Eval_packed}, stimuli drawn with
    {!Rchls_util.Rng.fill_lanes}, the upset applied to the fault-free
    sweep by {!Rchls_netlist.Eval_packed.upset}), fans nodes out over
    the {!Rchls_util.Pool} domains, streams per-node hit counts into
    Wilson-interval estimates with optional early termination, and
    memoizes reports by netlist fingerprint.  The scalar reference
    engine ({!Campaign.run_scalar}) produces bit-identical reports —
    the differential oracle for tests and the [bench fault] mode. *)

(** Which candidate nodes a campaign characterizes. *)
module Sampling : sig
  type t =
    | All  (** every gate-output net *)
    | Strided of int
        (** a deterministic, evenly strided sample of at most [n]
            nodes — keeps the characterization of large multipliers
            fast while spanning the topological depth *)
    | Fraction of float
        (** an evenly strided [ceil (f * total)]-node sample, [f] in
            (0, 1]; at least one node on non-empty netlists *)

  val select : t -> 'a list -> 'a list
  (** Apply the sampling policy to an ordered candidate list.  Raises
      [Invalid_argument] on a non-positive stride count or a fraction
      outside (0, 1]. *)
end

type config = {
  vectors : int;  (** random vectors per node (upper bound when
                      [ci_target] is set) *)
  seed : int;  (** PRNG seed; campaigns are deterministic per seed,
                   independent of engine and domain count *)
  sampling : Sampling.t;  (** which nodes to characterize *)
  ci_target : float option;
      (** when [Some h], stop a node early once the 95% Wilson-interval
          half-width of its logical derating falls to [h] or below
          (checked every 63 vectors).  [None] (the default) keeps every
          node at exactly [vectors] injections so reproduction outputs
          stay bit-identical. *)
  domains : int option;
      (** worker domains for the node fan-out; [None] uses the
          {!Rchls_util.Pool} default ([RCHLS_DOMAINS] or the
          recommended count), [Some 1] forces sequential.  Never
          affects results, only wall-clock. *)
}
(** A campaign configuration — the single record threaded end-to-end
    through {!Campaign.run} → {!Ser.analyze} →
    [Characterize.from_measurement]. *)

type node_result = {
  net : Rchls_netlist.Netlist.net;
  kind : Rchls_netlist.Gate.kind;  (** driving gate *)
  logical_derating : float;  (** P(flip visible at an output) *)
  observed : int;  (** vectors where the flip was visible *)
  injected : int;  (** vectors simulated for this node (less than the
                       configured [vectors] only under [ci_target]) *)
  ci_low : float;  (** 95% Wilson lower bound on the derating *)
  ci_high : float;  (** 95% Wilson upper bound on the derating *)
}

type report = {
  netlist_name : string;
  config : config;
  nodes : node_result list;  (** in netlist gate order *)
  sampled_fraction : float;  (** characterized nodes / total nodes *)
}

(** The campaign engine. *)
module Campaign : sig
  type nonrec config = config = {
    vectors : int;
    seed : int;
    sampling : Sampling.t;
    ci_target : float option;
    domains : int option;
  }

  val default : config
  (** 128 vectors, seed 1, all nodes, no early termination, pool-default
      domains. *)

  val run : ?config:config -> Rchls_netlist.Netlist.t -> report
  (** Characterize every candidate node (subject to [sampling]) with
      the bit-parallel engine, nodes fanned out over the domain pool.
      Reports are memoized by ({!Rchls_netlist.Netlist.fingerprint},
      result-affecting config fields): repeating a characterization —
      library builds, sweeps, benches — returns the cached report.
      Raises [Invalid_argument] on a non-positive [vectors],
      [ci_target] or [domains]. *)

  val run_scalar : ?config:config -> Rchls_netlist.Netlist.t -> report
  (** Sequential scalar reference engine: one {!Rchls_netlist.Eval}
      pass per (node, vector), identical RNG streams and early-
      termination boundaries, hence a bit-identical report.  Never
      cached — this is the differential-testing oracle. *)

  val cache_clear : unit -> unit
  (** Drop every memoized report (timing benches; tests). *)
end

val candidate_nets : Rchls_netlist.Netlist.t -> Rchls_netlist.Netlist.net list
(** All gate-output nets, in topological order. *)

val run : ?config:config -> Rchls_netlist.Netlist.t -> report
(** Alias of {!Campaign.run}. *)

val node_logical_derating :
  ?config:config -> Rchls_netlist.Netlist.t -> Rchls_netlist.Netlist.net -> float
(** Monte-Carlo logical derating of a single node (bit-parallel;
    honours [vectors] and [ci_target], ignores [sampling] and
    [domains]). *)

val average_derating : report -> float
(** Mean logical derating over characterized nodes. *)
