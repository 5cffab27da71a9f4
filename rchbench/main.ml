(* The rchls benchmark.

     bash rchbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     bash rchbench/run.sh --workload all ...   (each workload in turn)
     bash rchbench/run.sh digests SEED...      (regenerate expected.txt lines)

   Workloads (see BENCHMARK.json for why each was chosen):
     serve-cold     distinct synth/check jobs to a daemon at its disk bound
     serve-hot      Zipf-skewed repeats over a working set in the tiers
     batch-explore  explore/anneal/combined-sweep jobs on the CLI path
     characterize   Figure-2 library characterization, distinct seeds

   An untraced run (--trace 0) prints the end-to-end metrics; a traced
   run (--trace 1) measures the same load untraced and traced for half
   the time each, replays the traced ops through each layer's public
   functions under spans, and prints every per-layer metric and the
   tracing overhead; the layers the workload does not reach are
   measured by short traced runs of the other workloads (probes).
   Every run checks its outputs; a failed check prints "correct":
   false and exits 1.  The last stdout line is the JSON result; the
   line before it is the full run record.

   Claims made with this benchmark should be confirmed on the held-out
   seed below, which was not used while the benchmark was tuned. *)

module Json = Rchls_util.Json
module Pool = Rchls_util.Pool
module Telemetry = Rchls_util.Telemetry

let held_out_seed = 9001
let workloads = [ "serve-cold"; "serve-hot"; "batch-explore"; "characterize" ]

let end_to_end = [ ("throughput_ops_s", "ops/s"); ("peak_rss_mb", "MiB"); ("setup_s", "s") ]

(* Open-loop latencies are printed with the end-to-end metrics but
   reported as per-layer (unbounded) metrics: on a 2-vCPU host with CPU
   steal, whole runs land in high-steal stretches, and sub-millisecond
   medians and tails then move by more than any bound a regression gate
   may use.  The untraced figures of a traced run are the ones
   reported. *)
let latencies = [ ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms") ]
let summary = end_to_end @ latencies

let per_layer =
  latencies
  @ [
    ("server.queue_wait_ms", "ms");
    ("server.exec_ms", "ms");
    ("server.self_ms", "ms");
    ("client.transport_ms", "ms");
    ("server.tier.memory", "count");
    ("server.tier.disk", "count");
    ("server.tier.miss", "count");
    ("server.response_bytes", "B");
    ("server.batch_jobs", "count");
    ("api.request_decode_us", "us");
    ("api.request_encode_us", "us");
    ("api.response_encode_us", "us");
    ("api.response_decode_us", "us");
    ("service.resolve_us", "us");
    ("service.cache_key_us", "us");
    ("diskcache.add_us", "us");
    ("diskcache.find_us", "us");
    ("diskcache.hit_ratio", "1");
    ("engine.synthesize_ms", "ms");
    ("engine.cache_hit_ratio", "1");
    ("engine.realize_per_job", "count");
    ("sched.density_us", "us");
    ("sched.runs_per_job", "count");
    ("binding.bind_us", "us");
    ("check.design_us", "us");
    ("explore.job_ms", "ms");
    ("explore.evaluated_ratio", "1");
    ("sweep.job_ms", "ms");
    ("redundancy.runs_per_job", "count");
    ("anneal.job_ms", "ms");
    ("anneal.moves_per_s", "1/s");
    ("anneal.accept_ratio", "1");
    ("anneal.pruned_ratio", "1");
    ("pool.map_us", "us");
    ("pool.two_domain_speedup", "1");
    ("circuits.generate_ms", "ms");
    ("eval_packed.evals_per_s", "1/s");
    ("fault.campaign_ms", "ms");
    ("fault.injections_per_s", "1/s");
    ("fault.cache_hit_ratio", "1");
    ("loadgen.late_p99_ms", "ms");
    ("bench.op_self_us", "us");
    ("trace.overhead_throughput_pct", "%");
    ("trace.overhead_p50_pct", "%");
  ]

(* A no-op [Pool.map] over nproc items on nproc domains: the pool's
   fixed cost per parallel call. *)
let pool_map_us () =
  let nproc = Domain.recommended_domain_count () in
  let items = List.init nproc Fun.id in
  let samples =
    Array.init 200 (fun _ ->
        let t = Telemetry.now_ns () in
        ignore (Pool.map ~domains:nproc (fun x -> x) items);
        Int64.to_float (Int64.sub (Telemetry.now_ns ()) t) /. 1e3)
  in
  Stat.median samples

let run_workload ?(repeats = Outcome.setup_repeats) name ~seed ~seconds ~trace =
  match name with
  | "serve-cold" -> Serve.run ~repeats Serve.Cold ~seed ~seconds ~trace
  | "serve-hot" -> Serve.run ~repeats Serve.Hot ~seed ~seconds ~trace
  | "batch-explore" -> Batch.run ~repeats ~seed ~seconds ~trace
  | "characterize" -> Charz.run ~repeats ~seed ~seconds ~trace
  | _ -> invalid_arg name

let fmt_value v = Printf.sprintf "%.6g" v

let metric_json v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]

let pct_change ~base v = if base = 0. then 0. else 100. *. (v -. base) /. base

(* A traced run reports every per-layer metric.  The layers a workload
   does not reach (serve-hot computes nothing, batch-explore and
   characterize have no daemon, only characterize runs the fault
   campaign, ...) are measured by probes: short traced runs of the
   other workloads on the same seed, in [workloads] order, each with
   all of its output checks and one set-up (a probe reports no set-up
   time).  A probe runs only while some metric is still missing, and
   each missing metric is taken from the first probe that measures it.
   The run record names every metric's source.

   A probe's open-loop phases are short (1 s), so one host stall weighs
   more in their backlog test than in a full run's.  A probe that fails
   it is reported in the record, never used, and run again, up to
   [probe_attempts] times in all. *)
let probe_seconds = 4.
let probe_attempts = 3

type probe = {
  p_workload : string;
  p_seconds : float;
  p_wall_s : float;  (** the probe's whole run, set-up and checks included *)
  p_invalid : string list;  (** why each earlier attempt was invalid *)
  p_outcome : Outcome.t;
  p_taken : string list;
}

(* Ops a run attempted and failed, mismatched outputs counted as failed. *)
let ops (o : Outcome.t) =
  let ta, tf = match o.traced with Some t -> (t.attempted, t.failed) | None -> (0, 0) in
  (o.untraced.attempted + ta, o.untraced.failed + o.mismatched + tf)

(* [own]: the metrics the workload measured itself.  Returns every
   per-layer metric as (name, value, unit, source), in [per_layer]
   order, and the probes run. *)
let with_probes ~workload ~seed ~seconds own =
  let have = ref (List.map (fun (n, v) -> (n, (v, workload))) own) in
  let missing () = List.filter (fun (n, _) -> not (List.mem_assoc n !have)) per_layer in
  let probes =
    List.filter_map
      (fun w ->
        if w = workload || missing () = [] then None
        else begin
          let p_seconds = Float.min probe_seconds seconds in
          let before = List.length !Common.checks and t0 = Common.now_ns () in
          let invalid = ref [] in
          let rec attempt () =
            try run_workload ~repeats:1 w ~seed ~seconds:p_seconds ~trace:true
            with Outcome.Invalid why ->
              (* the phase may have stopped inside its traced half *)
              Spans.stop ();
              invalid := why :: !invalid;
              if List.length !invalid < probe_attempts then attempt ()
              else raise (Outcome.Invalid (w ^ " probe, every attempt: " ^ why))
          in
          let o = attempt () in
          let fresh = List.length !Common.checks - before in
          Common.checks :=
            List.mapi
              (fun i (name, ok, detail) ->
                ((if i < fresh then Printf.sprintf "%s probe: %s" w name else name), ok, detail))
              !Common.checks;
          let got = o.layers @ Spans.layer_metrics (Spans.layers ()) in
          let taken =
            List.filter_map
              (fun (n, _) -> Option.map (fun v -> (n, (v, w))) (List.assoc_opt n got))
              (missing ())
          in
          have := !have @ taken;
          Some
            {
              p_workload = w;
              p_seconds;
              p_wall_s = Common.secs_since t0;
              p_invalid = List.rev !invalid;
              p_outcome = o;
              p_taken = List.map fst taken;
            }
        end)
      workloads
  in
  let values =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name !have with
        | Some (v, source) -> (name, Some v, unit, source)
        | None -> (name, None, unit, "none"))
      per_layer
  in
  (values, probes)

let probe_json p =
  let attempted, failed = ops p.p_outcome in
  Json.Obj
    [
      ("workload", Json.Str p.p_workload);
      ("seconds", Json.Float p.p_seconds);
      ("wall_s", Json.Float p.p_wall_s);
      ("invalid_attempts", Json.List (List.map (fun w -> Json.Str w) p.p_invalid));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics_taken", Json.List (List.map (fun n -> Json.Str n) p.p_taken));
      ("untraced", Outcome.e2e_json p.p_outcome.untraced);
    ]

let run ~workload ~seed ~seconds ~trace =
  let stamp = Common.env_stamp ~seed in
  Common.mkdir_p Common.work_root;
  let counters_at_start = Common.counters () in
  (* the workload's own spans are read (and its Chrome trace written)
     before any probe starts a collector of its own *)
  let o, layer_values, self_time, probes =
    Fun.protect ~finally:Common.cleanup (fun () ->
        let o : Outcome.t = run_workload workload ~seed ~seconds ~trace in
        match o.traced with
        | None -> (o, [], Json.Null, [])
        | Some t ->
          let u = o.untraced in
          let span_layers = Spans.layers () in
          Spans.write_chrome
            (Filename.concat Common.work_root (Printf.sprintf "trace-%s-%d.json" workload seed));
          let own =
            o.layers
            @ Spans.layer_metrics span_layers
            @ [
                ( "trace.overhead_throughput_pct",
                  pct_change ~base:(Stat.throughput u.rates) (Stat.throughput t.rates) );
                ("trace.overhead_p50_pct", pct_change ~base:(Stat.p50 u.lat_ms) (Stat.p50 t.lat_ms));
                ("pool.map_us", pool_map_us ());
              ]
            @ List.filter (fun (n, _) -> List.mem_assoc n latencies) (Outcome.figures u)
          in
          let values, probes = with_probes ~workload ~seed ~seconds own in
          (o, values, Spans.layers_json span_layers, probes))
  in
  let u = o.untraced in
  let setup_s = Stat.median (Array.of_list o.setups) in
  let rss = o.peak_rss_mb in
  let e2e_values = Outcome.figures u @ [ ("peak_rss_mb", rss); ("setup_s", setup_s) ] in
  let attempted, failed =
    List.fold_left
      (fun (a, f) p ->
        let pa, pf = ops p.p_outcome in
        (a + pa, f + pf))
      (ops o) probes
  in
  if trace then begin
    let unmeasured = List.filter_map (fun (n, v, _, _) -> if v = None then Some n else None) layer_values in
    Common.check "every per-layer metric measured" (unmeasured = [])
      (if unmeasured = [] then
         Printf.sprintf "%d metrics, %d probes" (List.length layer_values) (List.length probes)
       else "no workload measured " ^ String.concat ", " unmeasured)
  end;
  let correct = Common.all_passed () in
  (* --- human-readable summary --- *)
  Printf.printf "rchbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  let _, tail_pct = Stat.tail_latency u.lat_ms in
  List.iter
    (fun (name, unit) ->
      let v = List.assoc name e2e_values in
      Printf.printf "  %-30s %12s %s%s\n" name (fmt_value v) unit
        (if name = "latency_tail_ms" then
           Printf.sprintf "  (p%.2f of each chunk, median over chunks; %d samples)" tail_pct
             (Array.length u.lat_ms)
         else if name = "setup_s" then
           Printf.sprintf "  (median of %d set-ups)" (List.length o.setups)
         else ""))
    summary;
  Printf.printf "  %-30s %12s 1  (%d of %d ops)\n" "failed_ratio"
    (fmt_value (Stat.ratio failed attempted)) failed attempted;
  List.iter
    (fun (name, v, unit, source) ->
      match v with
      | Some v ->
        Printf.printf "  %-30s %12s %s%s\n" name (fmt_value v) unit
          (if source = workload then "" else Printf.sprintf "  (%s probe)" source)
      | None -> Printf.printf "  %-30s %12s    (not measured)\n" name "-")
    layer_values;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  check %-4s %s: %s\n" (if ok then "ok" else "FAIL") name detail)
    (List.rev !Common.checks);
  (* --- the run record --- *)
  let record =
    Json.Obj
      ([
         ("schema", Json.Str "rchbench/1");
         ("workload", Json.Str workload);
         ("seconds", Json.Float seconds);
         ("trace", Json.Bool trace);
         ("held_out_seed", Json.Int held_out_seed);
         ("env", stamp);
         ("inputs", o.inputs);
         ("setup_s_each", Json.List (List.map (fun s -> Json.Float s) o.setups));
         ("untraced", Outcome.e2e_json u);
         ("failed_ratio", Json.Float (Stat.ratio failed attempted));
         ("peak_rss_mb", Json.Float rss);
         ( "digest_method",
           Json.Str
             "MD5 over the newline-joined MD5s of the canonical JSON results of a fixed op \
              prefix, computed in-process by Service.run_job at one domain (characterize: \
              from_measurement outputs at one domain); committed per seed in \
              rchbench/expected.txt" );
         ("checks", Common.checks_json ());
       ]
      @ (match o.traced with
        | Some t ->
          [
            ("traced", Outcome.e2e_json t);
            ( "tracing_overhead",
              Json.Obj
                (List.map2
                   (fun (n, a) (_, b) -> (n, Json.Float (b -. a)))
                   (Outcome.figures u) (Outcome.figures t)) );
            ("self_time", self_time);
            ( "layer_sources",
              Json.Obj (List.map (fun (n, _, _, source) -> (n, Json.Str source)) layer_values) );
            ("probes", Json.List (List.map probe_json probes));
          ]
        | None -> [])
      @ o.details
      @ [
          ( "telemetry_counters",
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   let d = v - Option.value ~default:0 (List.assoc_opt k counters_at_start) in
                   if d = 0 then None else Some (k, Json.Int d))
                 (Common.counters ())) );
        ])
  in
  let record_text = Json.to_string record in
  (try
     let oc =
       open_out
         (Filename.concat Common.work_root
            (Printf.sprintf "record-%s-%d-trace%d.json" workload seed (if trace then 1 else 0)))
     in
     output_string oc record_text;
     close_out oc
   with Sys_error _ -> ());
  print_endline record_text;
  let metrics =
    if trace then
      List.filter_map
        (fun (n, v, unit, _) -> Option.map (fun v -> (n, metric_json v unit)) v)
        layer_values
    else List.map (fun (n, unit) -> (n, metric_json (List.assoc n e2e_values) unit)) end_to_end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1

(* [--workload all]: every workload in turn, each in a process of its
   own; exits 1 if any run failed. *)
let run_all args =
  let failed =
    List.filter
      (fun w ->
        let argv =
          Array.of_list
            (Sys.executable_name
            :: List.concat_map
                 (fun (k, v) -> [ "--" ^ k; (if k = "workload" then w else v) ])
                 args)
        in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  exit (if failed = [] then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --workload all --seed N --seconds S --trace 0|1\n\
    \       main.exe digests SEED...";
  exit 2

let digests seeds =
  List.iter
    (fun seed ->
      List.iter
        (fun (w, d) -> Printf.printf "%s %d %s\n%!" w seed (d ()))
        [
          ("serve-cold", fun () -> Serve.reference_digest Serve.Cold ~seed);
          ("serve-hot", fun () -> Serve.reference_digest Serve.Hot ~seed);
          ("batch-explore", fun () -> Batch.reference_digest ~seed);
          ("characterize", fun () -> Charz.reference_digest ~seed);
        ])
    seeds

let () =
  match Array.to_list Sys.argv with
  | [ _; "daemon"; socket; cache_dir ] -> Serve.daemon_main ~socket ~cache_dir
  | _ :: "digests" :: seeds -> (
    match List.map int_of_string_opt seeds with
    | l when List.for_all Option.is_some l && l <> [] -> digests (List.map Option.get l)
    | _ -> usage ())
  | _ :: args ->
    let rec parse acc = function
      | [] -> acc
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let workload = get "workload" in
    if workload = "all" then run_all (List.rev opts);
    if not (List.mem workload workloads) then begin
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " workloads);
      exit 2
    end;
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
    if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
    (try run ~workload ~seed ~seconds:(float_of_int seconds) ~trace:(trace = 1) with
    | Outcome.Invalid why ->
      Printf.printf "rchbench %s seed=%d: INVALID RUN, no result reported: %s\n" workload seed why;
      exit 3)
  | [] -> usage ()
