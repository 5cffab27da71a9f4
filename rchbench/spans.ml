(* Benchmark-side tracing: spans recorded around the calls this
   benchmark makes into each layer's public functions, kept in memory
   by an [Rchls_util.Trace] collector and turned into per-layer self
   times at the end of the run.

   Every benchmark span carries three attributes: [op] (the op it
   belongs to — all spans of one op share it), [sid] (its own id) and
   [parent] (the sid of the enclosing benchmark span, 0 for a root).
   The library's own spans reach the sink too; only [serve.job] is
   kept (for the Chrome trace), so a long traced run stays small. *)

module Trace = Rchls_util.Trace
module Json = Rchls_util.Json

let prefix = "rb:"
let collector : Trace.collector option ref = ref None
let next_sid = Atomic.make 1

let keep name =
  name = "serve.job"
  || (String.length name > 3 && String.sub name 0 3 = prefix)

(* Per-send spans of a long load phase are capped, so a traced run's
   memory and Chrome trace stay bounded; a send span is small and its
   first events already give its mean. *)
let send_events_max = 20_000

let start () =
  let c = Trace.collector () in
  let sink = Trace.collector_sink c in
  let sends = Atomic.make 0 in
  Trace.set_sinks
    [
      (fun ev ->
        if keep ev.Trace.name then
          if ev.name <> prefix ^ "client.send" then sink ev
          else if Atomic.fetch_and_add sends 1 < send_events_max then sink ev);
    ];
  collector := Some c

let stop () = Trace.set_sinks []
let tracing () = Option.is_some !collector && Trace.enabled ()

(* [span ~op ~parent name f] runs [f sid] inside a span; untraced it is
   just [f 0]. *)
let span ?(parent = 0) ~op name f =
  if not (tracing ()) then f 0
  else
    let sid = Atomic.fetch_and_add next_sid 1 in
    Trace.with_span
      ~attrs:
        [ ("op", Trace.Int op); ("sid", Trace.Int sid); ("parent", Trace.Int parent) ]
      (prefix ^ name)
      (fun () -> f sid)

type closed = {
  name : string;  (* without the prefix *)
  parent : int;
  start_ns : int64;
  end_ns : int64;
}

(* Closed spans keyed by their own sid, for parent lookups.  [End]
   events carry no attributes, so each is matched to the innermost open
   [Begin] of the same name on the same domain. *)
let indexed () =
  match !collector with
  | None -> []
  | Some c ->
    let opened = Hashtbl.create 64 in
    let strip name =
      String.sub name (String.length prefix) (String.length name - String.length prefix)
    in
    List.filter_map
      (fun (ev : Trace.event) ->
        let key = (ev.domain, ev.name) in
        let stack = Option.value ~default:[] (Hashtbl.find_opt opened key) in
        match (ev.kind, Trace.attr_int ev.attrs "sid") with
        | Trace.Begin, Some sid ->
          let parent = Option.value ~default:0 (Trace.attr_int ev.attrs "parent") in
          Hashtbl.replace opened key ((sid, parent, ev.ts_ns) :: stack);
          None
        | Trace.End, _ when keep ev.name && ev.name <> "serve.job" -> (
          match stack with
          | (sid, parent, start_ns) :: rest ->
            Hashtbl.replace opened key rest;
            Some
              ( sid,
                {
                  name = strip ev.name;
                  parent;
                  start_ns;
                  end_ns = Int64.add start_ns ev.dur_ns;
                } )
          | [] -> None)
        | _ -> None)
      (Trace.events c)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let coverage ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, max cb b))
          else (Int64.add acc (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

type layer = { count : int; total_ns : int64; self_ns : int64 }

(* Per span name: calls, summed duration and summed self time (duration
   minus the part of it covered by child spans). *)
let layers () =
  let spans = indexed () in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (_, s) ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (sid, s) ->
      let dur = Int64.sub s.end_ns s.start_ns in
      let covered =
        coverage ~lo:s.start_ns ~hi:s.end_ns
          (Option.value ~default:[] (Hashtbl.find_opt children sid))
      in
      let l =
        Option.value
          ~default:{ count = 0; total_ns = 0L; self_ns = 0L }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        {
          count = l.count + 1;
          total_ns = Int64.add l.total_ns dur;
          self_ns = Int64.add l.self_ns (Int64.sub dur covered);
        })
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Mean self time per call of span [name], in [unit_ns] units; 0 when
   the span never ran. *)
let mean_self layers ~unit_ns name =
  match List.assoc_opt name layers with
  | Some l when l.count > 0 ->
    Int64.to_float l.self_ns /. float_of_int l.count /. unit_ns
  | _ -> 0.

let write_chrome path =
  Option.iter (fun c -> Trace.write_chrome_file c path) !collector

let layers_json layers =
  Json.Obj
    (List.map
       (fun (name, l) ->
         ( name,
           Json.Obj
             [
               ("calls", Json.Int l.count);
               ("total_ms", Json.Float (Int64.to_float l.total_ns /. 1e6));
               ("self_ms", Json.Float (Int64.to_float l.self_ns /. 1e6));
             ] ))
       layers)

(* Per-layer metrics read from span self times: metric, span, ns per
   unit.  Only spans that ran yield a metric. *)
let span_metrics =
  [
    ("api.request_decode_us", "api.request_decode", 1e3);
    ("api.request_encode_us", "api.request_encode", 1e3);
    ("api.response_encode_us", "api.response_encode", 1e3);
    ("api.response_decode_us", "api.response_decode", 1e3);
    ("service.resolve_us", "service.resolve", 1e3);
    ("service.cache_key_us", "service.cache_key", 1e3);
    ("diskcache.add_us", "diskcache.add", 1e3);
    ("diskcache.find_us", "diskcache.find", 1e3);
    ("engine.synthesize_ms", "engine.synthesize", 1e6);
    ("sched.density_us", "sched.density", 1e3);
    ("binding.bind_us", "binding.bind", 1e3);
    ("check.design_us", "check.design", 1e3);
    ("explore.job_ms", "explore.job", 1e6);
    ("sweep.job_ms", "sweep.job", 1e6);
    ("anneal.job_ms", "anneal.job", 1e6);
    ("circuits.generate_ms", "circuits.generate", 1e6);
    ("fault.campaign_ms", "fault.campaign", 1e6);
    ("bench.op_self_us", "op", 1e3);
  ]

let layer_metrics layers =
  List.filter_map
    (fun (metric, span, unit_ns) ->
      match List.assoc_opt span layers with
      | Some l when l.count > 0 -> Some (metric, mean_self layers ~unit_ns span)
      | _ -> None)
    span_metrics

let total_s layers name =
  match List.assoc_opt name layers with
  | Some l -> Int64.to_float l.total_ns /. 1e9
  | None -> 0.
