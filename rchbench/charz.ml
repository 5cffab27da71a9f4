(* The characterize workload: the paper's Figure-2 flow,
   [Characterize.from_measurement] at width 16, one op per campaign
   seed derived from the workload seed.  It is the workload that exercises the gate-level circuits, packed
   evaluation and the fault campaign ([fault_sim.ml]'s [Pool] site); no
   synthesis runs.  Ops run one at a time at the [RCHLS_DOMAINS] domain
   count; a traced run also times them at one and at two domains. *)

module Characterize = Rchls_charlib.Characterize
module Library = Rchls_charlib.Library
module Fault_sim = Rchls_soft_error.Fault_sim
module Catalog = Rchls_circuits.Catalog
module Eval_packed = Rchls_netlist.Eval_packed
module Netlist = Rchls_netlist.Netlist
module Rng = Rchls_util.Rng
module Json = Rchls_util.Json

let width = 16

let characterize ?domains cseed =
  Characterize.from_measurement ~width
    ~fault_config:{ Fault_sim.Campaign.default with seed = cseed; domains }
    ()

(* The library text plus every chain's measured values, bit-exact. *)
let output (ms, lib) =
  String.concat "\n"
    (Library.to_text lib
    :: List.map
         (fun (m : Characterize.measurement) ->
           Printf.sprintf "%s %h %h %h %d %d" m.chain.resource_id m.chain.qcritical m.chain.ser
             m.chain.reliability m.chain.area m.chain.delay)
         ms)

let run_op ?domains ~seed k =
  Spans.span ~op:k "op" (fun root ->
      Spans.span ~parent:root ~op:k "characterize" (fun _ ->
          output (characterize ?domains (Inputs.campaign_seed ~seed k))))

let digest_ops = 2

(* The committed digest: MD5 over the outputs of ops 0 and 1 (campaign
   seeds derived from the workload seed) at one domain. *)
let reference_digest ~seed =
  Fault_sim.Campaign.cache_clear ();
  Common.digest (List.init digest_ops (fun k -> run_op ~domains:1 ~seed k))

(* One op is one characterization as a fresh CLI process runs it: the
   fault-campaign report memo starts empty (cleared, untimed), so the
   process does not grow with the number of ops a run happens to
   complete. *)
let loop ~seed ~first ~seconds =
  let t0 = Common.now_ns () in
  let lat = ref [] and done_at = ref [] and outs = ref [] and k = ref first in
  while Common.secs_since t0 < seconds do
    Fault_sim.Campaign.cache_clear ();
    let t = Common.now_ns () in
    let s = run_op ~seed !k in
    lat := (Common.secs_since t *. 1e3) :: !lat;
    done_at := Common.secs_since t0 :: !done_at;
    outs := (!k, s) :: !outs;
    incr k
  done;
  let ops = !k - first in
  ( {
      Outcome.rates = Stat.window_rates ~duration:(Common.secs_since t0) (Array.of_list !done_at);
      lat_ms = Array.of_list (List.rev !lat);
      attempted = ops;
      failed = 0;
    },
    !k,
    !outs )

(* The five Table-1 netlists as [from_measurement] builds them. *)
let netlists () =
  List.map
    (fun (id, w, sampling) -> ((Option.get (Catalog.find id)).Catalog.build ~width:w, sampling))
    [
      ("rca", width, Fault_sim.Sampling.All);
      ("bk", width, Fault_sim.Sampling.All);
      ("ks", width, Fault_sim.Sampling.All);
      ("csmul", width / 2, Fault_sim.Sampling.Strided 256);
      ("lfmul", width / 2, Fault_sim.Sampling.Strided 256);
    ]

let packed_runs = 200

(* Layer calls of one characterization, replayed under spans: netlist
   generation, one campaign per netlist, and [packed_runs] packed
   evaluations of the ripple-carry adder.  The replay does not clear
   the report memo; each of its campaigns is on a seed of its own, so
   the memo should never answer ([fault.cache_hit_ratio]). *)
let replay ~seed ~seconds =
  let t0 = Common.now_ns () in
  let k = ref 0 and evals = ref 0 in
  while Common.secs_since t0 < seconds do
    let op = 1_000_000 + !k in
    Spans.span ~op "op" (fun root ->
        let sp name f = Spans.span ~parent:root ~op name (fun _ -> f ()) in
        let nls = sp "circuits.generate" netlists in
        List.iter
          (fun (nl, sampling) ->
            ignore
              (sp "fault.campaign" (fun () ->
                   Fault_sim.Campaign.run
                     ~config:
                       {
                         Fault_sim.Campaign.default with
                         seed = Inputs.campaign_seed ~seed op;
                         sampling;
                       }
                     nl)))
          nls;
        let nl = fst (List.hd nls) in
        let st = Eval_packed.create nl in
        let r = Rng.create op in
        let inputs = Array.map (fun _ -> Rng.bits r land Eval_packed.lane_mask Eval_packed.lanes) (Netlist.inputs nl) in
        sp "eval_packed.run" (fun () ->
            for _ = 1 to packed_runs do
              ignore (Eval_packed.run st inputs)
            done);
        evals := !evals + (packed_runs * Eval_packed.lanes));
    incr k
  done;
  !evals

(* Warm-up: three characterizations on campaign seeds of their own per
   set-up, so no set-up is answered by the report memo. *)
let setup ~seed i = for j = 1 to 3 do ignore (run_op ~seed (-(3 * i) - j)) done

let run ~repeats ~seed ~seconds ~trace =
  let setups, () = Outcome.repeat_setup ~repeats ~prepare:Fun.id ~dispose:ignore (setup ~seed) in
  let load_s = if trace then seconds /. 2. else seconds in
  let untraced, next, outs = loop ~seed ~first:0 ~seconds:load_s in
  (* the peak of the workload itself, before the traced half, the
     replay, the two-domain probe and the checks *)
  let rss = Common.peak_rss_mb () in
  let traced =
    if not trace then None
    else begin
      Spans.start ();
      let e, _, outs2 = loop ~seed ~first:next ~seconds:load_s in
      let before = Common.counters () in
      let evals = replay ~seed ~seconds:load_s in
      let after = Common.counters () in
      Spans.stop ();
      let d = Common.delta before after in
      let hits = d "fault.cache.hits" and misses = d "fault.cache.misses" in
      Common.check "fault-campaign memo never answers the replay's campaigns" (hits = 0)
        (Printf.sprintf "%d hits, %d misses, memo not cleared" hits misses);
      let speedup =
        Common.two_domain_speedup ~seconds:(seconds /. 8.) (fun ~domains k ->
            ignore (characterize ~domains (Inputs.campaign_seed ~seed ((1_000 * domains) + k - 10_000))))
      in
      let layers = Spans.layers () in
      let campaign_s = Spans.total_s layers "fault.campaign"
      and eval_s = Spans.total_s layers "eval_packed.run" in
      Some
        ( e,
          outs2,
          List.filter_map
            (fun (name, v) -> Option.map (fun v -> (name, v)) v)
            [
              ("fault.cache_hit_ratio", Stat.ratio_opt hits (hits + misses));
              ("pool.two_domain_speedup", Some speedup);
              ("eval_packed.evals_per_s", Stat.per_s_opt evals eval_s);
              ("fault.injections_per_s", Stat.per_s_opt (d "fault.injections") campaign_s);
            ] )
    end
  in
  let outs = outs @ match traced with Some (_, o, _) -> o | None -> [] in
  let out k =
    match List.assoc_opt k outs with
    | Some s -> s
    | None -> run_op ~seed k
  in
  Common.check_digest ~workload:"characterize" ~seed ~how:"outputs of ops 0 and 1"
    (Common.digest (List.init digest_ops out))
    (fun () -> reference_digest ~seed);
  let same =
    List.for_all
      (fun domains ->
        Fault_sim.Campaign.cache_clear ();
        run_op ~domains ~seed 0 = out 0)
      [ 1; 2 ]
  in
  Common.check "op 0 identical at 1 and 2 domains" same "characterization of campaign seed 0";
  {
    Outcome.setups;
    untraced;
    traced = Option.map (fun (e, _, _) -> e) traced;
    layers = (match traced with Some (_, _, l) -> l | None -> []);
    peak_rss_mb = rss;
    mismatched = 0;
    inputs =
      Json.Obj
        [
          ("width", Json.Int width);
          ("vectors", Json.Int Fault_sim.Campaign.default.vectors);
          ("campaign_seeds", Json.Str "one per op, derived from the workload seed");
          ("graphs", Json.Int 0);
        ];
    details = [ ("closed_loop_window", Json.Int 1) ];
  }
