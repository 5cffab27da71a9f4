(* What one workload run hands back to main.ml. *)

module Json = Rchls_util.Json

type e2e = {
  rates : float array;  (** closed-loop completion rates, ops/s, one per window *)
  lat_ms : float array;  (** op latencies in time order, for the latency metrics *)
  attempted : int;
  failed : int;
}

type t = {
  setups : float list;  (** seconds, one per repeated set-up *)
  untraced : e2e;
  traced : e2e option;  (** the same load with tracing on (traced runs) *)
  layers : (string * float) list;  (** per-layer metric values (traced runs) *)
  mismatched : int;  (** ops whose output failed a check *)
  peak_rss_mb : float;
      (** peak RSS of the process under test (the daemon on the serve workloads), read
          right after the untraced load, before the traced half and the
          checks *)
  inputs : Json.t;  (** the generated inputs' properties *)
  details : (string * Json.t) list;
}

(* The end-to-end figures of one load, by name. *)
let figures e =
  [
    ("throughput_ops_s", Stat.throughput e.rates);
    ("latency_p50_ms", Stat.p50 e.lat_ms);
    ("latency_tail_ms", fst (Stat.tail_latency e.lat_ms));
  ]

let e2e_json e =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Float v)) (figures e)
    @ [
        ("latency_tail_percentile", Json.Float (snd (Stat.tail_latency e.lat_ms)));
        ("latency_samples", Json.Int (Array.length e.lat_ms));
        ("window_rates", Json.List (Array.to_list (Array.map (fun r -> Json.Float r) e.rates)));
        ( "chunk_p50_ms",
          Json.List (Array.to_list (Array.map (fun c -> Json.Float (Stat.median c)) (Stat.chunks e.lat_ms))) );
        ( "chunk_tail_ms",
          Json.List
            (Array.to_list (Array.map (fun c -> Json.Float (fst (Stat.tail c))) (Stat.chunks e.lat_ms))) );
        ("attempted", Json.Int e.attempted);
        ("failed", Json.Int e.failed);
      ])

(* Set-up is repeated and its median reported, so set-up time is
   steady enough to gate on. *)
let setup_repeats = 3

(* Run [f (prepare i)] for i = 0 .. [repeats] - 1, timing [f] only:
   [prepare] makes state that exists before a user's process starts.
   The last result is kept and the earlier ones are released with
   [dispose]. *)
let repeat_setup ~repeats:n ~prepare ~dispose f =
  let rec go i acc last =
    if i = n then (List.rev acc, Option.get last)
    else begin
      Option.iter dispose last;
      let p = prepare i in
      let t = Common.now_ns () in
      let v = f p in
      go (i + 1) (Common.secs_since t :: acc) (Some v)
    end
  in
  go 0 [] None

(* A run that measured something other than what it claims (an
   open-loop backlog that kept growing): reported, never as a result. *)
exception Invalid of string
