(* The Rchls_util.Metrics layer: gauges, rolling-window histograms and
   the two exposition encoders.

   - Gauges: exactness under concurrent adjustment from domains.
   - Rolling windows: deterministic via the [?now_ns] injection point —
     exact count/sum/max, log2-bucket quantile estimates checked
     against a scalar oracle (QCheck, concurrent writers included),
     slice rotation, expiry and late-observation drop.
   - Exposition: the Prometheus text form and the JSON snapshot carry
     every registered series with the right names, types and units. *)

module Metrics = Rchls_util.Metrics
module Telemetry = Rchls_util.Telemetry
module Json = Rchls_util.Json
module Gen = QCheck2.Gen

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- gauges ----------------------------------------------------------- *)

let test_gauge_basics () =
  Metrics.reset ();
  Alcotest.(check int) "never set" 0 (Metrics.gauge "m.g0");
  Metrics.gauge_set "m.g" 7;
  Alcotest.(check int) "set" 7 (Metrics.gauge "m.g");
  Metrics.gauge_add "m.g" (-3);
  Alcotest.(check int) "add" 4 (Metrics.gauge "m.g");
  Metrics.gauge_set "m.g" 0;
  Alcotest.(check bool) "listed, sorted" true
    (List.mem_assoc "m.g" (Metrics.gauges ()))

let test_gauge_concurrent_adds () =
  Metrics.reset ();
  let per = 20_000 and workers = 4 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Metrics.gauge_add "m.busy" 1;
              Metrics.gauge_add "m.busy" (-1)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "balanced adds cancel" 0 (Metrics.gauge "m.busy")

(* --- rolling windows --------------------------------------------------- *)

let ms = 1_000_000L
let window_ns = 1_000L |> Int64.mul ms (* 1 s *)
let mk () = Metrics.Rolling.create ~window_ns ~slices:10 ()

let test_rolling_exact_aggregates () =
  let w = mk () in
  let now = 5_000_000_000L in
  List.iter
    (fun v -> Metrics.Rolling.observe ~now_ns:now w (Int64.of_int v))
    [ 100; 200; 300; 400 ];
  let s = Metrics.Rolling.stat ~now_ns:now w in
  Alcotest.(check int) "count" 4 s.Metrics.Rolling.count;
  Alcotest.(check int64) "sum" 1000L s.Metrics.Rolling.sum_ns;
  Alcotest.(check int64) "max" 400L s.Metrics.Rolling.max_ns;
  Alcotest.(check int64) "window" window_ns s.Metrics.Rolling.window_ns;
  Alcotest.(check bool) "quantiles monotone" true
    (s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns
    && s.p99_ns <= Int64.to_float s.max_ns +. 1e-9)

let test_rolling_expiry () =
  let w = mk () in
  let t0 = 1_000_000_000L in
  Metrics.Rolling.observe ~now_ns:t0 w 500L;
  let inside = Int64.add t0 (Int64.div window_ns 2L) in
  Alcotest.(check int) "still inside the window" 1
    (Metrics.Rolling.stat ~now_ns:inside w).Metrics.Rolling.count;
  let beyond = Int64.add t0 (Int64.mul window_ns 2L) in
  let s = Metrics.Rolling.stat ~now_ns:beyond w in
  Alcotest.(check int) "expired" 0 s.Metrics.Rolling.count;
  Alcotest.(check int64) "expired sum" 0L s.Metrics.Rolling.sum_ns;
  Alcotest.(check (float 1e-9)) "expired quantile" 0. s.Metrics.Rolling.p99_ns

let test_rolling_partial_expiry () =
  (* Two observations one window apart never coexist; two observations
     one slice apart do, until the window slides past the older one. *)
  let w = mk () in
  let slice = Int64.div window_ns 10L in
  let t0 = 3_000_000_000L in
  let t1 = Int64.add t0 slice in
  Metrics.Rolling.observe ~now_ns:t0 w 111L;
  Metrics.Rolling.observe ~now_ns:t1 w 222L;
  Alcotest.(check int) "both alive" 2
    (Metrics.Rolling.stat ~now_ns:t1 w).Metrics.Rolling.count;
  (* advance so t0's slice has left the window but t1's has not *)
  let later = Int64.add t0 window_ns in
  let s = Metrics.Rolling.stat ~now_ns:later w in
  Alcotest.(check int) "older slice aged out" 1 s.Metrics.Rolling.count;
  Alcotest.(check int64) "survivor is the newer" 222L s.Metrics.Rolling.max_ns

let test_rolling_late_observation_dropped () =
  let w = mk () in
  let t0 = 2_000_000_000L in
  (* an observation timestamped a full window before current traffic *)
  Metrics.Rolling.observe ~now_ns:(Int64.add t0 window_ns) w 999L;
  Metrics.Rolling.observe ~now_ns:t0 w 111L;
  let s = Metrics.Rolling.stat ~now_ns:(Int64.add t0 window_ns) w in
  Alcotest.(check int) "late write dropped" 1 s.Metrics.Rolling.count;
  Alcotest.(check int64) "only the live slice counts" 999L
    s.Metrics.Rolling.max_ns

let test_rolling_empty_stat () =
  let s = Metrics.Rolling.empty_stat ~window_ns in
  Alcotest.(check int) "count" 0 s.Metrics.Rolling.count;
  Alcotest.(check int64) "max" 0L s.Metrics.Rolling.max_ns;
  let w = mk () in
  Alcotest.(check bool) "fresh window reads empty" true
    (Metrics.Rolling.stat ~now_ns:1L w = { s with Metrics.Rolling.window_ns })

(* Scalar oracle: the q-quantile of the raw samples.  A log2-bucket
   estimate with linear interpolation lands in the bucket holding the
   true quantile (or a boundary neighbor), so it is within a factor of
   4 — the property that matters is that the estimate tracks the data,
   not digit-exact agreement. *)
let oracle_quantile q samples =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  float_of_int (List.nth sorted (rank - 1))

let close_to_oracle est truth =
  est >= (truth /. 4.) -. 2. && est <= (truth *. 4.) +. 2.

let prop_rolling_concurrent_oracle =
  QCheck2.Test.make
    ~name:"rolling quantiles track a scalar oracle under concurrent writers"
    ~count:30
    Gen.(list_size (int_range 4 200) (int_range 1 1_000_000))
    (fun samples ->
      let w = Metrics.Rolling.create ~window_ns ~slices:4 () in
      let now = 7_000_000_000L in
      (* Four domains split the samples; a fixed [now_ns] makes the
         merge exact, so only estimation error is tolerated. *)
      let arr = Array.of_list samples in
      let workers = 4 in
      let ds =
        List.init workers (fun k ->
            Domain.spawn (fun () ->
                Array.iteri
                  (fun i v ->
                    if i mod workers = k then
                      Metrics.Rolling.observe ~now_ns:now w (Int64.of_int v))
                  arr))
      in
      List.iter Domain.join ds;
      let s = Metrics.Rolling.stat ~now_ns:now w in
      let truth = List.fold_left ( + ) 0 samples in
      s.Metrics.Rolling.count = List.length samples
      && s.Metrics.Rolling.sum_ns = Int64.of_int truth
      && s.Metrics.Rolling.max_ns
         = Int64.of_int (List.fold_left max 0 samples)
      && s.p50_ns <= s.p90_ns +. 1e-9
      && s.p90_ns <= s.p99_ns +. 1e-9
      && s.p99_ns <= Int64.to_float s.Metrics.Rolling.max_ns +. 1e-9
      && close_to_oracle s.p50_ns (oracle_quantile 0.5 samples)
      && close_to_oracle s.p90_ns (oracle_quantile 0.9 samples)
      && close_to_oracle s.p99_ns (oracle_quantile 0.99 samples))

(* --- registry + exposition -------------------------------------------- *)

let test_prometheus_name () =
  Alcotest.(check string) "dots to underscores" "rchls_serve_hits_memory"
    (Metrics.prometheus_name "serve.hits.memory");
  Alcotest.(check string) "every foreign byte mapped" "rchls_a_b_c_1"
    (Metrics.prometheus_name "a-b c/1")

let test_exposition () =
  Telemetry.reset ();
  Metrics.reset ();
  Telemetry.incr "expo.count";
  Telemetry.incr "expo.count";
  Metrics.gauge_set "expo.gauge" 42;
  Metrics.observe_window "expo.lat" 1_500L;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int)) "counter folded in" (Some 2)
    (List.assoc_opt "expo.count" snap.Metrics.counters);
  Alcotest.(check (option int)) "gauge present" (Some 42)
    (List.assoc_opt "expo.gauge" snap.Metrics.gauges);
  Alcotest.(check bool) "window present" true
    (List.mem_assoc "expo.lat" snap.Metrics.windows);
  let text = Metrics.to_prometheus snap in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" affix) true
        (contains ~affix text))
    [
      "# TYPE rchls_uptime_seconds gauge";
      "# TYPE rchls_expo_count_total counter";
      "rchls_expo_count_total 2";
      "# TYPE rchls_expo_gauge gauge";
      "rchls_expo_gauge 42";
      "# TYPE rchls_expo_lat_seconds summary";
      "rchls_expo_lat_seconds{quantile=\"0.5\"}";
      "rchls_expo_lat_seconds{quantile=\"0.99\"}";
      "rchls_expo_lat_seconds_sum 1.5e-06";
      "rchls_expo_lat_seconds_count 1";
    ];
  Alcotest.(check bool) "ends with a newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  (* the JSON snapshot carries the same series and survives a parse *)
  let j =
    match Json.of_string (Json.to_string (Metrics.to_json snap)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot json: %s" e
  in
  let member path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "json counter" (Some 2)
    (Option.bind (member [ "counters"; "expo.count" ]) Json.to_int_opt);
  Alcotest.(check (option int)) "json gauge" (Some 42)
    (Option.bind (member [ "gauges"; "expo.gauge" ]) Json.to_int_opt);
  Alcotest.(check (option int)) "json window count" (Some 1)
    (Option.bind (member [ "windows"; "expo.lat"; "count" ]) Json.to_int_opt);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes gauges" 0 (Metrics.gauge "expo.gauge");
  Alcotest.(check bool) "reset clears windows" true
    ((List.assoc "expo.lat" (Metrics.windows ())).Metrics.Rolling.count = 0);
  Alcotest.(check bool) "reset leaves Telemetry counters" true
    (Telemetry.counter "expo.count" = 2)

(* Golden bytes: a fixed snapshot (hand-picked counters and gauges,
   rolling windows fed at injected timestamps) encodes to exactly these
   Prometheus and JSON texts.  The uptime value is the one line that
   reads the clock, so it is dropped before comparing. *)
let golden_snapshot () =
  let stat_of obs ~at =
    let w = mk () in
    List.iter (fun (t, v) -> Metrics.Rolling.observe ~now_ns:t w v) obs;
    Metrics.Rolling.stat ~now_ns:at w
  in
  let s5 = 5_000_000_000L in
  {
    Metrics.counters =
      [ ("golden.zero", 0); ("golden.hits", 17); ("golden-x/y", 3) ];
    gauges = [ ("golden.depth", 5); ("golden.neg", -2) ];
    windows =
      [
        ( "golden.mixed",
          stat_of ~at:s5
            (List.map
               (fun v -> (s5, v))
               [ 0L; 1L; 3L; 1_500L; 70_000L; 2_000_000L; 1_000_000_000L ]) );
        ( "golden.partial",
          stat_of ~at:2_050_000_000L
            [ (1_000_000_000L, 100L); (1_500_000_000L, 900L); (2_000_000_000L, 40L) ] );
        ("golden.wide", stat_of ~at:s5 [ (s5, 0L); (s5, 35_184_372_088_832L) ]);
        ("golden.empty", stat_of ~at:s5 []);
      ];
  }

let golden_prometheus =
  "# TYPE rchls_uptime_seconds gauge\n\
   # TYPE rchls_golden_zero_total counter\n\
   rchls_golden_zero_total 0\n\
   # TYPE rchls_golden_hits_total counter\n\
   rchls_golden_hits_total 17\n\
   # TYPE rchls_golden_x_y_total counter\n\
   rchls_golden_x_y_total 3\n\
   # TYPE rchls_golden_depth gauge\n\
   rchls_golden_depth 5\n\
   # TYPE rchls_golden_neg gauge\n\
   rchls_golden_neg -2\n\
   # TYPE rchls_golden_mixed_seconds summary\n\
   rchls_golden_mixed_seconds{quantile=\"0.5\"} 1.536e-06\n\
   rchls_golden_mixed_seconds{quantile=\"0.9\"} 0.697932186\n\
   rchls_golden_mixed_seconds{quantile=\"0.99\"} 1\n\
   rchls_golden_mixed_seconds_sum 1.0020715\n\
   rchls_golden_mixed_seconds_count 7\n\
   # TYPE rchls_golden_partial_seconds summary\n\
   rchls_golden_partial_seconds{quantile=\"0.5\"} 6.4e-08\n\
   rchls_golden_partial_seconds{quantile=\"0.9\"} 9e-07\n\
   rchls_golden_partial_seconds{quantile=\"0.99\"} 9e-07\n\
   rchls_golden_partial_seconds_sum 9.4e-07\n\
   rchls_golden_partial_seconds_count 2\n\
   # TYPE rchls_golden_wide_seconds summary\n\
   rchls_golden_wide_seconds{quantile=\"0.5\"} 2e-09\n\
   rchls_golden_wide_seconds{quantile=\"0.9\"} 35184.3721\n\
   rchls_golden_wide_seconds{quantile=\"0.99\"} 35184.3721\n\
   rchls_golden_wide_seconds_sum 35184.3721\n\
   rchls_golden_wide_seconds_count 2\n\
   # TYPE rchls_golden_empty_seconds summary\n\
   rchls_golden_empty_seconds{quantile=\"0.5\"} 0\n\
   rchls_golden_empty_seconds{quantile=\"0.9\"} 0\n\
   rchls_golden_empty_seconds{quantile=\"0.99\"} 0\n\
   rchls_golden_empty_seconds_sum 0\n\
   rchls_golden_empty_seconds_count 0\n"

let golden_json =
  "{\"counters\":{\"golden.zero\":0,\"golden.hits\":17,\"golden-x/y\":3},\
   \"gauges\":{\"golden.depth\":5,\"golden.neg\":-2},\
   \"windows\":{\"golden.mixed\":{\"count\":7,\"sum_ns\":1002071504,\"p50_ns\":1536,\"p90_ns\":697932185.5999999,\"p99_ns\":1000000000,\"max_ns\":1000000000,\"window_ns\":1000000000},\
   \"golden.partial\":{\"count\":2,\"sum_ns\":940,\"p50_ns\":64,\"p90_ns\":900,\"p99_ns\":900,\"max_ns\":900,\"window_ns\":1000000000},\
   \"golden.wide\":{\"count\":2,\"sum_ns\":35184372088832,\"p50_ns\":2,\"p90_ns\":35184372088832,\"p99_ns\":35184372088832,\"max_ns\":35184372088832,\"window_ns\":1000000000},\
   \"golden.empty\":{\"count\":0,\"sum_ns\":0,\"p50_ns\":0,\"p90_ns\":0,\"p99_ns\":0,\"max_ns\":0,\"window_ns\":1000000000}}}"

let test_golden_exposition () =
  let snap = golden_snapshot () in
  let text =
    String.split_on_char '\n' (Metrics.to_prometheus snap)
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:"rchls_uptime_seconds " l))
    |> String.concat "\n"
  in
  Alcotest.(check string) "prometheus bytes" golden_prometheus text;
  Alcotest.(check string) "json bytes" golden_json
    (Json.to_string (Metrics.to_json snap))

let test_uptime_monotone () =
  let a = Metrics.uptime_ns () in
  let b = Metrics.uptime_ns () in
  Alcotest.(check bool) "positive and monotone" true
    (Int64.compare a 0L > 0 && Int64.compare b a >= 0)

let () =
  Alcotest.run "metrics"
    [
      ( "gauges",
        [
          Alcotest.test_case "basics" `Quick test_gauge_basics;
          Alcotest.test_case "concurrent adds" `Quick test_gauge_concurrent_adds;
        ] );
      ( "rolling",
        [
          Alcotest.test_case "exact aggregates" `Quick
            test_rolling_exact_aggregates;
          Alcotest.test_case "expiry" `Quick test_rolling_expiry;
          Alcotest.test_case "partial expiry" `Quick test_rolling_partial_expiry;
          Alcotest.test_case "late observation dropped" `Quick
            test_rolling_late_observation_dropped;
          Alcotest.test_case "empty stat" `Quick test_rolling_empty_stat;
          QCheck_alcotest.to_alcotest prop_rolling_concurrent_oracle;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus names" `Quick test_prometheus_name;
          Alcotest.test_case "prometheus + json exposition" `Quick
            test_exposition;
          Alcotest.test_case "uptime" `Quick test_uptime_monotone;
          Alcotest.test_case "golden bytes" `Quick test_golden_exposition;
        ] );
    ]
