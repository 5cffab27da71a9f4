(* Tests for the soft-error engine: reliability math, the Hazucha SER
   model, critical charge, fault injection and SER aggregation. *)

module Reliability = Rchls_soft_error.Reliability
module Hazucha = Rchls_soft_error.Hazucha
module Charge = Rchls_soft_error.Charge
module Fault_sim = Rchls_soft_error.Fault_sim
module Ser = Rchls_soft_error.Ser
open Rchls_netlist

let checkf = Alcotest.(check (float 1e-9))
let checkf4 = Alcotest.(check (float 1e-4))

(* --- Reliability --- *)

let test_exponential_law () =
  checkf "R(0.001)" (exp (-0.001)) (Reliability.of_failure_rate 0.001);
  checkf "R at t=2" (exp (-0.002)) (Reliability.of_failure_rate ~t:2. 0.001)

let test_failure_rate_inverse () =
  let lambda = 0.0123 in
  checkf "roundtrip" lambda (Reliability.failure_rate (Reliability.of_failure_rate lambda))

let test_failure_rate_domain () =
  Alcotest.(check bool) "rejects 0" true
    (try ignore (Reliability.failure_rate 0.); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects >1" true
    (try ignore (Reliability.failure_rate 1.5); false with Invalid_argument _ -> true)

let test_mttf () = checkf "mttf" 1000. (Reliability.mttf 0.001)

let test_serial () =
  checkf "serial" (0.9 *. 0.8) (Reliability.serial [ 0.9; 0.8 ]);
  checkf "empty serial" 1. (Reliability.serial []);
  (* The paper's Figure 4(a) example: R = 0.969^6 = 0.82783. *)
  checkf4 "fig4 product" 0.82783 (Reliability.serial (List.init 6 (fun _ -> 0.969)))

let test_parallel_any () =
  checkf "parallel" (1. -. (0.1 *. 0.2)) (Reliability.parallel_any [ 0.9; 0.8 ])

let test_binomial () =
  checkf "C(5,2)" 10. (Reliability.binomial 5 2);
  checkf "C(3,0)" 1. (Reliability.binomial 3 0);
  checkf "C(3,5)" 0. (Reliability.binomial 3 5)

let test_tmr_formula () =
  (* TMR = 3r^2 - 2r^3. *)
  let r = 0.969 in
  checkf "tmr" ((3. *. r *. r) -. (2. *. r *. r *. r)) (Reliability.nmr ~n:3 r)

let test_nmr_5 () =
  (* 3-of-5 majority. *)
  let r = 0.9 in
  let expect =
    Reliability.binomial 5 3 *. (r ** 3.) *. ((1. -. r) ** 2.)
    +. (Reliability.binomial 5 4 *. (r ** 4.) *. (1. -. r))
    +. (r ** 5.)
  in
  checkf "nmr5" expect (Reliability.nmr ~n:5 r)

let test_nmr_rejects_even () =
  Alcotest.(check bool) "rejects n=2" true
    (try ignore (Reliability.nmr ~n:2 0.9); false with Invalid_argument _ -> true)

let test_nmr_improves_above_half () =
  (* Majority voting only helps when r > 0.5. *)
  Alcotest.(check bool) "improves at 0.9" true (Reliability.nmr ~n:3 0.9 > 0.9);
  Alcotest.(check bool) "hurts at 0.4" true (Reliability.nmr ~n:3 0.4 < 0.4)

let test_duplex () =
  checkf "duplex" (1. -. (0.031 *. 0.031)) (Reliability.duplex_rollback 0.969);
  checkf "duplex perfect" 1. (Reliability.duplex_rollback 1.)

(* --- Hazucha --- *)

let test_qs_solved_from_anchors () =
  (* The calibration derived in DESIGN.md: Qs ~ 8.627e-21 C. *)
  let qs =
    Hazucha.solve_qs ~qc_ref:Charge.paper_qcritical_rca ~r_ref:0.999
      ~qc_other:Charge.paper_qcritical_bk ~r_other:0.969
  in
  Alcotest.(check (float 1e-23)) "qs" 8.627e-21 qs

let test_kogge_stone_prediction () =
  (* With Qs from the RCA/BK anchors, the Kogge-Stone published
     Qcritical must predict its published reliability 0.987 — the
     internal-consistency check of the paper's Table 1. *)
  let env = Hazucha.default in
  let lambda_rca = -.log 0.999 in
  let lambda_ks =
    lambda_rca
    *. Hazucha.ser_ratio env ~qc_from:Charge.paper_qcritical_rca
         ~qc_to:Charge.paper_qcritical_ks
  in
  Alcotest.(check (float 5e-4)) "R(KS)" 0.987 (exp (-.lambda_ks))

let test_ser_monotone_in_qcritical () =
  let env = Hazucha.default in
  let s1 = Hazucha.ser env ~qcritical:10e-21 in
  let s2 = Hazucha.ser env ~qcritical:50e-21 in
  Alcotest.(check bool) "more charge, fewer upsets" true (s2 < s1)

let test_ser_ratio_identity () =
  let env = Hazucha.default in
  checkf "same charge" 1. (Hazucha.ser_ratio env ~qc_from:3e-21 ~qc_to:3e-21)

let test_calibrate_k () =
  let env = Hazucha.calibrate_k Hazucha.default ~qc_ref:42e-21 ~lambda_ref:0.5 in
  checkf "anchored" 0.5 (Hazucha.ser env ~qcritical:42e-21)

let test_solve_qs_rejects () =
  Alcotest.(check bool) "same charge" true
    (try
       ignore (Hazucha.solve_qs ~qc_ref:1e-21 ~r_ref:0.9 ~qc_other:1e-21 ~r_other:0.8);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "r out of range" true
    (try
       ignore (Hazucha.solve_qs ~qc_ref:1e-21 ~r_ref:1.0 ~qc_other:2e-21 ~r_other:0.8);
       false
     with Invalid_argument _ -> true)

(* --- Charge --- *)

let inverter_chain n =
  let b = Netlist.builder "chain" in
  let x = Netlist.input b "x" in
  let rec go net i = if i = 0 then net else go (Netlist.add_gate b Gate.Inv [ net ]) (i - 1) in
  Netlist.output b "o" (go x n);
  Netlist.finalize b

let test_qcritical_positive () =
  let nl = inverter_chain 3 in
  for net = 0 to Netlist.net_count nl - 1 do
    Alcotest.(check bool) "positive" true (Charge.node_qcritical Charge.default nl net > 0.)
  done

let test_qcritical_scales_with_fanout () =
  (* A net driving 4 gates collects more charge than one driving 1. *)
  let fan n =
    let b = Netlist.builder "fan" in
    let x = Netlist.input b "x" in
    let inv = Netlist.add_gate b Gate.Inv [ x ] in
    for i = 0 to n - 1 do
      Netlist.output b (Printf.sprintf "o%d" i) (Netlist.add_gate b Gate.Buf [ inv ])
    done;
    Netlist.finalize b
  in
  let inv_out nl = (Array.get (Netlist.gates nl) 0).Netlist.out in
  let q1 = Charge.node_qcritical Charge.default (fan 1) (inv_out (fan 1)) in
  let q4 = Charge.node_qcritical Charge.default (fan 4) (inv_out (fan 4)) in
  Alcotest.(check bool) "fanout raises Qcritical" true (q4 > q1)

(* --- Fault_sim --- *)

let and_or_netlist () =
  (* o = (x AND y) OR z: the AND output is logically masked when z=1. *)
  let b = Netlist.builder "ao" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let z = Netlist.input b "z" in
  let a = Netlist.add_gate b Gate.And2 [ x; y ] in
  let o = Netlist.add_gate b Gate.Or2 [ a; z ] in
  Netlist.output b "o" o;
  (Netlist.finalize b, a, o)

let test_candidates () =
  let nl, a, o = and_or_netlist () in
  Alcotest.(check (list int)) "gate outputs" [ a; o ] (Fault_sim.candidate_nets nl)

let test_output_node_always_propagates () =
  let nl, _, o = and_or_netlist () in
  checkf "output derating 1" 1.
    (Fault_sim.node_logical_derating
       ~config:{ Fault_sim.Campaign.default with vectors = 64 }
       nl o)

let test_masked_node_derating () =
  (* The AND output propagates only when z=0: expected derating 0.5,
     Monte-Carlo within a loose tolerance. *)
  let nl, a, _ = and_or_netlist () in
  let d =
    Fault_sim.node_logical_derating
      ~config:{ Fault_sim.Campaign.default with vectors = 2000 }
      nl a
  in
  Alcotest.(check bool) "derating near 0.5" true (d > 0.4 && d < 0.6)

let test_run_deterministic () =
  let nl, _, _ = and_or_netlist () in
  let r1 = Fault_sim.run nl and r2 = Fault_sim.run nl in
  List.iter2
    (fun (a : Fault_sim.node_result) (b : Fault_sim.node_result) ->
      Alcotest.(check int) "same observations" a.observed b.observed)
    r1.Fault_sim.nodes r2.Fault_sim.nodes

let test_run_seed_changes_results () =
  let nl = inverter_chain 8 in
  let r1 = Fault_sim.run ~config:{ Fault_sim.Campaign.default with seed = 1 } nl in
  let r2 = Fault_sim.run ~config:{ Fault_sim.Campaign.default with seed = 2 } nl in
  (* An inverter chain propagates every flip, so even different seeds
     agree here; check instead that both report full derating. *)
  List.iter
    (fun (n : Fault_sim.node_result) -> checkf "chain derating" 1. n.logical_derating)
    (r1.Fault_sim.nodes @ r2.Fault_sim.nodes)

let test_node_sampling () =
  let nl = inverter_chain 16 in
  let r =
    Fault_sim.run
      ~config:{ Fault_sim.Campaign.default with sampling = Fault_sim.Sampling.Strided 4 }
      nl
  in
  Alcotest.(check int) "4 nodes" 4 (List.length r.Fault_sim.nodes);
  Alcotest.(check (float 1e-9)) "fraction" 0.25 r.Fault_sim.sampled_fraction

let test_fraction_sampling () =
  let nl = inverter_chain 16 in
  let r =
    Fault_sim.run
      ~config:
        { Fault_sim.Campaign.default with sampling = Fault_sim.Sampling.Fraction 0.5 }
      nl
  in
  Alcotest.(check int) "8 nodes" 8 (List.length r.Fault_sim.nodes);
  Alcotest.(check (float 1e-9)) "fraction" 0.5 r.Fault_sim.sampled_fraction

let test_invalid_config () =
  let nl = inverter_chain 2 in
  let rejects label config =
    Alcotest.(check bool) label true
      (try
         ignore (Fault_sim.run ~config nl);
         false
       with Invalid_argument _ -> true)
  in
  rejects "rejects 0 vectors" { Fault_sim.Campaign.default with vectors = 0 };
  rejects "rejects 0-node sample"
    { Fault_sim.Campaign.default with sampling = Fault_sim.Sampling.Strided 0 };
  rejects "rejects fraction > 1"
    { Fault_sim.Campaign.default with sampling = Fault_sim.Sampling.Fraction 1.5 };
  rejects "rejects 0 ci target" { Fault_sim.Campaign.default with ci_target = Some 0. };
  rejects "rejects 0 domains" { Fault_sim.Campaign.default with domains = Some 0 }

(* --- Campaign: packed engine, determinism, early stop, cache --- *)

let node_results_equal (a : Fault_sim.node_result) (b : Fault_sim.node_result) =
  a.net = b.net && a.kind = b.kind && a.observed = b.observed && a.injected = b.injected
  && a.logical_derating = b.logical_derating
  && a.ci_low = b.ci_low && a.ci_high = b.ci_high

let reports_equal (a : Fault_sim.report) (b : Fault_sim.report) =
  a.Fault_sim.netlist_name = b.Fault_sim.netlist_name
  && a.Fault_sim.sampled_fraction = b.Fault_sim.sampled_fraction
  && List.length a.Fault_sim.nodes = List.length b.Fault_sim.nodes
  && List.for_all2 node_results_equal a.Fault_sim.nodes b.Fault_sim.nodes

let test_packed_equals_scalar () =
  (* The bit-parallel engine must be a pure speedup: bit-identical
     reports on both a masked netlist and a real adder, at vector
     counts spanning several 63-lane batches, with and without early
     termination at the batch boundaries. *)
  let nl_ao, _, _ = and_or_netlist () in
  let nl_add = Rchls_circuits.Adder_ripple.netlist ~width:4 () in
  List.iter
    (fun (vectors, ci_target) ->
      let config =
        { Fault_sim.Campaign.default with vectors; ci_target; domains = Some 1 }
      in
      List.iter
        (fun nl ->
          Fault_sim.Campaign.cache_clear ();
          let packed = Fault_sim.Campaign.run ~config nl in
          let scalar = Fault_sim.Campaign.run_scalar ~config nl in
          let label = match ci_target with None -> "" | Some _ -> ", ci 0.1" in
          Alcotest.(check bool)
            (Printf.sprintf "packed = scalar (%d vectors%s)" vectors label)
            true (reports_equal packed scalar);
          if ci_target <> None then
            Alcotest.(check bool)
              (Printf.sprintf "some node stops early (%d vectors)" vectors)
              true
              (List.exists
                 (fun (n : Fault_sim.node_result) -> n.injected < vectors)
                 packed.Fault_sim.nodes))
        [ nl_ao; nl_add ])
    [ (1, None); (63, None); (64, None); (130, None); (64, Some 0.1); (130, Some 0.1) ]

let test_campaign_domain_determinism () =
  (* Per-node RNG streams are split before the fan-out, so the report
     is identical however many domains process the nodes. *)
  let nl = Rchls_circuits.Adder_ripple.netlist ~width:6 () in
  let run domains =
    Fault_sim.Campaign.cache_clear ();
    Fault_sim.Campaign.run
      ~config:{ Fault_sim.Campaign.default with vectors = 70; domains = Some domains }
      nl
  in
  let r1 = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains = sequential" domains)
        true
        (reports_equal r1 (run domains)))
    [ 2; 4 ]

let test_early_termination_stops () =
  (* An inverter chain has derating exactly 1 at every node: the Wilson
     half-width at p=1 shrinks fast, so a loose target must stop nodes
     after few batches while a None target runs all vectors. *)
  let nl = inverter_chain 6 in
  Fault_sim.Campaign.cache_clear ();
  let full =
    Fault_sim.Campaign.run ~config:{ Fault_sim.Campaign.default with vectors = 630 } nl
  in
  let early =
    Fault_sim.Campaign.run
      ~config:{ Fault_sim.Campaign.default with vectors = 630; ci_target = Some 0.05 }
      nl
  in
  List.iter
    (fun (n : Fault_sim.node_result) ->
      Alcotest.(check int) "full runs all vectors" 630 n.injected)
    full.Fault_sim.nodes;
  List.iter
    (fun (n : Fault_sim.node_result) ->
      Alcotest.(check bool) "early stop strictly before the cap" true (n.injected < 630);
      Alcotest.(check bool) "stop only once the target is met" true
        ((n.ci_high -. n.ci_low) /. 2. <= 0.05);
      checkf "derating unaffected" 1. n.logical_derating)
    early.Fault_sim.nodes

let test_ci_bounds_bracket_derating () =
  let nl = Rchls_circuits.Adder_ripple.netlist ~width:4 () in
  Fault_sim.Campaign.cache_clear ();
  let r = Fault_sim.Campaign.run ~config:{ Fault_sim.Campaign.default with vectors = 64 } nl in
  List.iter
    (fun (n : Fault_sim.node_result) ->
      Alcotest.(check bool) "ci_low <= derating <= ci_high" true
        (n.ci_low <= n.logical_derating && n.logical_derating <= n.ci_high);
      Alcotest.(check bool) "ci in [0,1]" true (n.ci_low >= 0. && n.ci_high <= 1.))
    r.Fault_sim.nodes

let test_campaign_cache_hit () =
  let nl = Rchls_circuits.Adder_brent_kung.netlist ~width:4 () in
  let config = { Fault_sim.Campaign.default with vectors = 32 } in
  Fault_sim.Campaign.cache_clear ();
  Rchls_util.Telemetry.reset ();
  let r1 = Fault_sim.Campaign.run ~config nl in
  let misses = Rchls_util.Telemetry.counter "fault.cache.misses" in
  let r2 = Fault_sim.Campaign.run ~config nl in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 (Rchls_util.Telemetry.counter "fault.cache.hits");
  Alcotest.(check bool) "cached report is the same report" true (r1 == r2);
  (* A structurally identical netlist built separately also hits. *)
  let nl' = Rchls_circuits.Adder_brent_kung.netlist ~width:4 () in
  let r3 = Fault_sim.Campaign.run ~config nl' in
  Alcotest.(check bool) "fingerprint-equal netlist hits" true (reports_equal r1 r3);
  (* A different config misses. *)
  ignore (Fault_sim.Campaign.run ~config:{ config with seed = 2 } nl);
  Alcotest.(check int) "different seed misses" 2
    (Rchls_util.Telemetry.counter "fault.cache.misses")

(* --- Ser --- *)

let test_analyze_chain () =
  let nl = inverter_chain 6 in
  let t = Ser.analyze ~fault_config:{ Fault_sim.Campaign.default with vectors = 32 } nl in
  Alcotest.(check int) "6 nodes" 6 (List.length t.Ser.nodes);
  Alcotest.(check bool) "positive total SER" true (t.Ser.total_ser > 0.);
  Alcotest.(check bool) "effective Qc positive" true (t.Ser.effective_qcritical > 0.)

let test_derated_below_raw () =
  let nl, _, _ = and_or_netlist () in
  let t = Ser.analyze nl in
  List.iter
    (fun (n : Ser.node_ser) ->
      Alcotest.(check bool) "derated <= raw" true (n.derated_ser <= n.raw_ser))
    t.Ser.nodes

let test_sampling_extrapolates_total () =
  let nl = inverter_chain 16 in
  let full =
    Ser.analyze ~fault_config:{ Fault_sim.Campaign.default with vectors = 16 } nl
  in
  let sampled =
    Ser.analyze
      ~fault_config:
        {
          Fault_sim.Campaign.default with
          vectors = 16;
          sampling = Fault_sim.Sampling.Strided 4;
        }
      nl
  in
  (* A uniform chain: the extrapolated total should be close to the
     full total (every node is statistically identical). *)
  Alcotest.(check bool) "extrapolation sane" true
    (sampled.Ser.total_ser > 0.5 *. full.Ser.total_ser
    && sampled.Ser.total_ser < 2. *. full.Ser.total_ser)

(* --- properties --- *)

let prop_serial_le_min =
  QCheck2.Test.make ~name:"serial product <= min component" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (float_range 0.01 1.))
    (fun rs ->
      let lo, _ = Rchls_util.Stats.min_max rs in
      Reliability.serial rs <= lo +. 1e-9)

let prop_parallel_ge_max =
  QCheck2.Test.make ~name:"parallel >= max component" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (float_range 0.01 0.999))
    (fun rs ->
      let _, hi = Rchls_util.Stats.min_max rs in
      Reliability.parallel_any rs >= hi -. 1e-9)

let prop_tmr_bounds =
  QCheck2.Test.make ~name:"nmr result stays in [0,1]" ~count:200
    QCheck2.Gen.(pair (oneofl [ 1; 3; 5; 7 ]) (float_bound_inclusive 1.))
    (fun (n, r) ->
      let v = Reliability.nmr ~n r in
      v >= -1e-9 && v <= 1. +. 1e-9)

let prop_duplex_dominates =
  QCheck2.Test.make ~name:"duplex >= simplex" ~count:200
    QCheck2.Gen.(float_bound_inclusive 1.)
    (fun r -> Reliability.duplex_rollback r >= r -. 1e-12)

let () =
  Alcotest.run "soft_error"
    [
      ( "reliability",
        [
          Alcotest.test_case "exponential law" `Quick test_exponential_law;
          Alcotest.test_case "failure rate inverse" `Quick test_failure_rate_inverse;
          Alcotest.test_case "failure rate domain" `Quick test_failure_rate_domain;
          Alcotest.test_case "mttf" `Quick test_mttf;
          Alcotest.test_case "serial" `Quick test_serial;
          Alcotest.test_case "parallel any" `Quick test_parallel_any;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "tmr formula" `Quick test_tmr_formula;
          Alcotest.test_case "nmr 5" `Quick test_nmr_5;
          Alcotest.test_case "nmr rejects even" `Quick test_nmr_rejects_even;
          Alcotest.test_case "nmr above half" `Quick test_nmr_improves_above_half;
          Alcotest.test_case "duplex" `Quick test_duplex;
        ] );
      ( "hazucha",
        [
          Alcotest.test_case "Qs from anchors" `Quick test_qs_solved_from_anchors;
          Alcotest.test_case "Kogge-Stone prediction" `Quick test_kogge_stone_prediction;
          Alcotest.test_case "monotone in Qcritical" `Quick test_ser_monotone_in_qcritical;
          Alcotest.test_case "ratio identity" `Quick test_ser_ratio_identity;
          Alcotest.test_case "calibrate k" `Quick test_calibrate_k;
          Alcotest.test_case "solve_qs rejects" `Quick test_solve_qs_rejects;
        ] );
      ( "charge",
        [
          Alcotest.test_case "positive" `Quick test_qcritical_positive;
          Alcotest.test_case "scales with fanout" `Quick test_qcritical_scales_with_fanout;
        ] );
      ( "fault_sim",
        [
          Alcotest.test_case "candidates" `Quick test_candidates;
          Alcotest.test_case "output node" `Quick test_output_node_always_propagates;
          Alcotest.test_case "masked node" `Quick test_masked_node_derating;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "chain full derating" `Quick test_run_seed_changes_results;
          Alcotest.test_case "node sampling" `Quick test_node_sampling;
          Alcotest.test_case "fraction sampling" `Quick test_fraction_sampling;
          Alcotest.test_case "invalid config" `Quick test_invalid_config;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "packed = scalar" `Quick test_packed_equals_scalar;
          Alcotest.test_case "domain determinism" `Quick test_campaign_domain_determinism;
          Alcotest.test_case "early termination" `Quick test_early_termination_stops;
          Alcotest.test_case "ci brackets derating" `Quick test_ci_bounds_bracket_derating;
          Alcotest.test_case "cache hit" `Quick test_campaign_cache_hit;
        ] );
      ( "ser",
        [
          Alcotest.test_case "analyze chain" `Quick test_analyze_chain;
          Alcotest.test_case "derated below raw" `Quick test_derated_below_raw;
          Alcotest.test_case "sampling extrapolates" `Quick test_sampling_extrapolates_total;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_serial_le_min; prop_parallel_ge_max; prop_tmr_bounds; prop_duplex_dominates ]
      );
    ]
