(* The batch-explore workload: the CLI path.  Explore, anneal and
   combined-approach sweep jobs over a seeded corpus run one at a time
   through [Service.run_job] at the [RCHLS_DOMAINS] domain count, each
   on fresh engine caches as a CLI invocation would be.  It is the
   workload whose jobs reach [Explore], [Anneal], redundancy and the
   engine's refine and recovery [Pool] sites; the daemon runs every job
   at one domain.  A traced run also times the same jobs at one and at
   two domains ([pool.two_domain_speedup]). *)

module Req = Rchls_api.Request
module Resp = Rchls_api.Response
module Service = Rchls_experiments.Service
module Sweep = Rchls_experiments.Sweep
module Explore = Rchls_experiments.Explore
module Library = Rchls_charlib.Library
module Json = Rchls_util.Json

let graphs = 24

let span_of = function
  | Req.Explore _ -> "explore.job"
  | Req.Anneal _ -> "anneal.job"
  | Req.Sweep _ -> "sweep.job"
  | _ -> "job"

(* One op: the job, then the payload encoding the CLI prints. *)
let run_op ?domains ~k (o : Inputs.op) =
  Spans.span ~op:k "op" (fun root ->
      let r =
        Spans.span ~parent:root ~op:k (span_of o.job) (fun _ -> Service.run_job ?domains o.job)
      in
      (r, Spans.span ~parent:root ~op:k "api.response_encode" (fun _ -> Common.result_string r)))

type tally = {
  mutable explore_cells : int;
  mutable explore_evaluated : int;
  mutable moves : int;
  mutable accepted : int;
  mutable pruned : int;
  mutable combined : int;
}

let tally () =
  { explore_cells = 0; explore_evaluated = 0; moves = 0; accepted = 0; pruned = 0; combined = 0 }

let count t (o : Inputs.op) = function
  | Ok (Resp.Explore_frontier e) ->
    t.explore_cells <- t.explore_cells + e.cells;
    t.explore_evaluated <- t.explore_evaluated + e.evaluated
  | Ok (Resp.Anneal_result a) ->
    t.moves <- t.moves + a.a_moves;
    t.accepted <- t.accepted + a.a_accepted;
    t.pruned <- t.pruned + a.a_pruned
  | Ok (Resp.Sweep_cells _) -> (
    match o.job with
    | Req.Sweep { approach = Req.Combined; _ } -> t.combined <- t.combined + 1
    | _ -> ())
  | _ -> ()

(* A closed loop, one job at a time, cycling through the job list. *)
let loop jobs ~first ~seconds ~first_results ~tally =
  let n = Array.length jobs in
  let t0 = Common.now_ns () in
  let lat = ref [] and done_at = ref [] and k = ref first and failed = ref 0 and mismatched = ref 0 in
  while Common.secs_since t0 < seconds do
    let j = !k mod n in
    let t = Common.now_ns () in
    let r, s = run_op ~k:!k jobs.(j) in
    lat := (Common.secs_since t *. 1e3) :: !lat;
    done_at := Common.secs_since t0 :: !done_at;
    (match r with Error _ -> incr failed | Ok _ -> ());
    count tally jobs.(j) r;
    (match first_results.(j) with
    | None -> first_results.(j) <- Some s
    | Some s0 -> if s0 <> s then incr mismatched);
    incr k
  done;
  let ops = !k - first in
  ( {
      Outcome.rates = Stat.window_rates ~duration:(Common.secs_since t0) (Array.of_list !done_at);
      lat_ms = Array.of_list (List.rev !lat);
      attempted = ops;
      failed = !failed;
    },
    !k,
    !mismatched )

let digest_of_jobs ?domains jobs =
  Common.digest
    (Array.to_list (Array.map (fun (o : Inputs.op) -> Common.result_string (Service.run_job ?domains o.job)) jobs))

(* The committed digest: MD5 over [Service.run_job ~domains:1] results
   of the seed's whole job list, in list order. *)
let reference_digest ~seed = digest_of_jobs ~domains:1 (Inputs.batch_jobs ~seed ~graphs)

(* Generation, then one pass over the job list as warm-up. *)
let setup ~seed _ =
  let jobs = Inputs.batch_jobs ~seed ~graphs in
  Array.iteri (fun k o -> ignore (run_op ~k o)) jobs;
  jobs

let verify ~seed jobs first_results =
  let results =
    Array.mapi
      (fun j r ->
        match r with
        | Some s -> s
        | None -> Common.result_string (Service.run_job jobs.(j).Inputs.job))
      first_results
  in
  Common.check_digest ~workload:"batch-explore" ~seed ~how:"the job list's results"
    (Common.digest (Array.to_list results))
    (fun () -> reference_digest ~seed);
  (* a seeded sample at one and at two domains *)
  let idx = Array.init (Array.length jobs) Fun.id in
  Inputs.shuffle (Inputs.rng seed [ 60 ]) idx;
  let sample = Array.to_list (Array.sub idx 0 6) in
  let differ =
    List.filter
      (fun j ->
        List.exists
          (fun domains ->
            Common.result_string (Service.run_job ~domains jobs.(j).Inputs.job) <> results.(j))
          [ 1; 2 ])
      sample
  in
  Common.check "results identical at 1 and 2 domains" (differ = [])
    (Printf.sprintf "%d sampled jobs, %d differ" (List.length sample) (List.length differ));
  (* a seeded sample of explore frontiers against the exhaustive grid *)
  let explores =
    List.filter (fun j -> match jobs.(j).Inputs.job with Req.Explore _ -> true | _ -> false)
      (Array.to_list idx)
  in
  let frontier_ok j =
    let o = jobs.(j) in
    match o.Inputs.job with
    | Req.Explore s -> (
      match Service.run_explore ~domains:1 s with
      | Ok (points, stats) ->
        let reference =
          Explore.frontier
            (Sweep.run_reference ~domains:1 Sweep.Ours o.graph.dfg Library.table1
               ~lds:o.graph.lds ~ads:o.graph.ads)
        in
        points = reference
        && Common.payload_string (Service.payload_of_explore (points, stats)) = results.(j)
      | Error _ -> false)
    | _ -> true
  in
  let checked = List.filteri (fun i _ -> i < 3) explores in
  let bad = List.filter (fun j -> not (frontier_ok j)) checked in
  Common.check "explore frontiers equal the exhaustive Sweep.run_reference frontier" (bad = [])
    (Printf.sprintf "%d frontiers checked, %d differ" (List.length checked) (List.length bad))

let run ~repeats ~seed ~seconds ~trace =
  let setups, jobs = Outcome.repeat_setup ~repeats ~prepare:Fun.id ~dispose:ignore (setup ~seed) in
  let first_results = Array.make (Array.length jobs) None in
  let load_s = if trace then seconds /. 2. else seconds in
  let untraced_tally = tally () in
  let untraced, next, m1 = loop jobs ~first:0 ~seconds:load_s ~first_results ~tally:untraced_tally in
  (* the peak of the workload itself, before the traced half, the
     two-domain probe and the checks *)
  let rss = Common.peak_rss_mb () in
  let traced =
    if not trace then None
    else begin
      let t = tally () in
      let before = Common.counters () in
      Spans.start ();
      let e, _, m2 = loop jobs ~first:next ~seconds:load_s ~first_results ~tally:t in
      Spans.stop ();
      let after = Common.counters () in
      let d = Common.delta before after in
      let speedup =
        Common.two_domain_speedup ~seconds:(seconds /. 8.) (fun ~domains k ->
            ignore (Service.run_job ~domains jobs.(k mod Array.length jobs).Inputs.job))
      in
      let layers = Spans.layers () in
      let anneal_s = Spans.total_s layers "anneal.job" in
      Some
        ( e,
          m2,
          List.filter_map
            (fun (name, v) -> Option.map (fun v -> (name, v)) v)
            [
              ("explore.evaluated_ratio", Stat.ratio_opt t.explore_evaluated t.explore_cells);
              ("pool.two_domain_speedup", Some speedup);
              ("anneal.moves_per_s", Stat.per_s_opt t.moves anneal_s);
              ("anneal.accept_ratio", Stat.ratio_opt t.accepted t.moves);
              ("anneal.pruned_ratio", Stat.ratio_opt t.pruned t.moves);
              ("redundancy.runs_per_job", Stat.ratio_opt (d "redundancy.runs") t.combined);
              ( "engine.cache_hit_ratio",
                Stat.ratio_opt (d "cache.hits") (d "cache.hits" + d "cache.misses") );
              ("engine.realize_per_job", Stat.ratio_opt (d "engine.realize") e.attempted);
              ("sched.runs_per_job", Stat.ratio_opt (d "sched.runs") e.attempted);
            ] )
    end
  in
  verify ~seed jobs first_results;
  {
    Outcome.setups;
    untraced;
    traced = Option.map (fun (e, _, _) -> e) traced;
    layers = (match traced with Some (_, _, l) -> l | None -> []);
    peak_rss_mb = rss;
    mismatched = m1 + (match traced with Some (_, m, _) -> m | None -> 0);
    inputs =
      Json.Obj
        [
          ("jobs", Inputs.props jobs);
          ("anneal_moves_per_chain", Json.Int Inputs.anneal_moves);
        ];
    details = [ ("closed_loop_window", Json.Int 1) ];
  }
