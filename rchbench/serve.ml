(* The serve-cold and serve-hot workloads: an [rchls serve] daemon
   ([Server.start], disk tier on, every other setting at its default)
   driven over its Unix socket by one connection.  Each measurement is
   an open-loop phase at a fixed mean rate, Poisson arrivals (latency),
   followed by a closed-loop phase with a fixed pipelining window
   (throughput).

   The daemon runs in a child process started from this same binary
   ([daemon_main]).  In-process, the load generator's threads would
   share the daemon's OCaml runtime lock: a job computing on the
   daemon's scheduler thread would hold back the client's sends and
   receipt stamps, and the benchmark's own bookkeeping would show in
   the daemon's memory.  As a child it is a black box over its socket:
   queue and execution times come from the [timing] envelope of each
   response, cache tiers from its [cache] field, counters from a
   [stats] request and memory from its /proc status.  Layer times below
   the daemon come from a replay of the traced phase's ops, in this
   process, through the same public functions the daemon calls, each
   wrapped in a span. *)

module Server = Rchls_serve.Server
module Client = Rchls_serve.Client
module Req = Rchls_api.Request
module Resp = Rchls_api.Response
module Service = Rchls_experiments.Service
module Diskcache = Rchls_util.Diskcache
module Fnv = Rchls_util.Fnv
module Json = Rchls_util.Json
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Density_sched = Rchls_sched.Density_sched
module Binding = Rchls_binding.Binding
module Check = Rchls_check.Check

let window = 32
let open_share = 0.5

(* --- the daemon process ----------------------------------------------------- *)

(* [main.exe daemon SOCKET CACHE_DIR]: serve until SIGTERM, or until
   the benchmark process that started it is gone. *)
let daemon_main ~socket ~cache_dir =
  let parent = Unix.getppid () in
  let config =
    { (Server.default_config (Server.Unix_socket socket)) with Server.cache_dir = Some cache_dir }
  in
  match Server.start config with
  | Error e ->
    prerr_endline ("rchbench daemon: " ^ e);
    exit 1
  | Ok server ->
    let stop = Atomic.make false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    while not (Atomic.get stop) && Unix.getppid () = parent do
      try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Server.stop server;
    exit 0

type daemon = { pid : int; client : Client.t }

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let start_daemon ~dir =
  let socket = Filename.concat dir "d.sock" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; socket; Filename.concat dir "cache" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let t0 = Common.now_ns () in
  let rec connect () =
    match Client.connect_unix socket with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "daemon exited during start-up");
      if Common.secs_since t0 > 30. then failwith ("daemon did not start: " ^ e);
      Unix.sleepf 0.005;
      connect ()
  in
  let client = connect () in
  Client.set_receive_timeout client 60.;
  { pid; client }

let stop_daemon d =
  Client.close d.client;
  reap d.pid

(* The daemon's telemetry counters, from a [stats] request; only call
   with no other response in flight. *)
let daemon_counters d =
  match Client.call d.client { Req.id = Some "stats"; job = Req.Stats } with
  | Ok { Resp.result = Ok (Resp.Stats_snapshot s); _ } -> s.counters
  | _ -> []

(* --- responses ------------------------------------------------------------ *)

type resp = {
  op : int;
  payload : string option;  (** fingerprint of an [ok] answer's canonical payload *)
  error : string option;
  tier : string;  (** "memory" | "disk" | "miss" *)
  queue_ns : int;
  exec_ns : int;
  total_ns : int;
  arrival_ns : int64;
  violations : int;
}

let no_resp =
  {
    op = -1;
    payload = None;
    error = None;
    tier = "miss";
    queue_ns = 0;
    exec_ns = 0;
    total_ns = 0;
    arrival_ns = 0L;
    violations = 0;
  }

(* The full decoder: [Resp.of_string]. *)
let decode line =
  match Resp.of_string line with
  | Error e -> { no_resp with error = Some ("undecodable response: " ^ e) }
  | Ok r ->
    let op = Option.value ~default:(-1) (Option.bind r.id int_of_string_opt) in
    let base =
      {
        no_resp with
        op;
        tier =
          (match r.cache with
          | Some { tier = Resp.Memory; _ } -> "memory"
          | Some { tier = Resp.Disk; _ } -> "disk"
          | None -> "miss");
      }
    in
    let base =
      match r.timing with
      | Some t ->
        { base with queue_ns = t.queue_ns; exec_ns = t.exec_ns; total_ns = t.total_ns }
      | None -> base
    in
    (match r.result with
    | Error e ->
      { base with error = Some (Resp.error_code_name e.code ^ ": " ^ e.message) }
    | Ok p ->
      let violations =
        match p with Resp.Check_report { violations; _ } -> List.length violations | _ -> 0
      in
      { base with payload = Some (Common.fingerprint (Common.payload_string p)); violations })

(* The reader thread's decoder.  An [ok] answer is laid out as
   [Resp.assemble_raw] writes it — api, id, status, the payload, then
   the flat [cache] and [timing] objects — so its fields are found by
   position and the payload is fingerprinted in place, without parsing
   it.  Error answers, failing check reports and any other layout go to
   [decode].  [verify] compares the two decoders on a sample. *)
let api_prefix = {|{"api":"rchls.api/1","id":"|}
let ok_infix = {|","status":"ok","result":|}
let check_prefix = {|{"kind":"check",|}
let check_passed = {|,"passed":true,"violations":[]}|}

(* [sub] occurs in [s] at [i]. *)
let at s i sub =
  let n = String.length sub in
  let rec eq j = j = n || (s.[i + j] = sub.[j] && eq (j + 1)) in
  i >= 0 && i + n <= String.length s && eq 0

(* [s.[lo, hi)] ends with [,"name":{...}] (a flat object): the object
   and the region before it. *)
let trailing s name ~lo ~hi =
  let key = Printf.sprintf {|,"%s":|} name in
  if hi - 1 <= lo || s.[hi - 1] <> '}' then (None, hi)
  else
    match String.rindex_from_opt s (hi - 2) '{' with
    | Some j when j - String.length key >= lo && at s (j - String.length key) key ->
      (Some (String.sub s j (hi - j)), j - String.length key)
    | _ -> (None, hi)

(* The integer after ["name":] in a flat object. *)
let int_field obj name =
  let key = Printf.sprintf {|"%s":|} name in
  let n = String.length obj in
  let rec find i =
    if i + String.length key > n then None
    else if at obj i key then Some (i + String.length key)
    else find (i + 1)
  in
  Option.bind (find 0) (fun i ->
      let j = ref i in
      while !j < n && obj.[!j] >= '0' && obj.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub obj i (!j - i)))

let read_line line =
  let n = String.length line in
  let fast =
    if not (at line 0 api_prefix && line.[n - 1] = '}') then None
    else
      let i0 = String.length api_prefix in
      match String.index_from_opt line i0 '"' with
      | Some iq when at line iq ok_infix -> (
        let p0 = iq + String.length ok_infix in
        let timing, hi = trailing line "timing" ~lo:p0 ~hi:(n - 1) in
        let cache, hi = trailing line "cache" ~lo:p0 ~hi in
        let check = at line p0 check_prefix in
        match (int_of_string_opt (String.sub line i0 (iq - i0)), timing) with
        | Some op, Some tm
          when (not check) || at line (hi - String.length check_passed) check_passed ->
          let ns name = Option.value ~default:0 (int_field tm name) in
          Some
            {
              no_resp with
              op;
              payload = Some (Digest.to_hex (Digest.substring line p0 (hi - p0)));
              tier =
                (match cache with
                | Some c when at c 0 {|{"tier":"memory"|} -> "memory"
                | Some c when at c 0 {|{"tier":"disk"|} -> "disk"
                | _ -> "miss");
              queue_ns = ns "queue_ns";
              exec_ns = ns "exec_ns";
              total_ns = ns "total_ns";
            }
        | _ -> None)
      | _ -> None
  in
  match fast with Some r -> r | None -> decode line

(* Lines kept per phase to compare [read_line] with [decode]. *)
let sample_lines = 16
let reader_compared = ref 0
let reader_disagreed = ref 0

(* A process's CPU time (user + system) so far, from /proc/PID/stat:
   utime and stime are the 14th and 15th fields, in clock ticks (100 a
   second); counting starts after the parenthesised command name. *)
let cpu_s_of_pid pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | ic -> (
    let l = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.rindex_opt l ')' with
    | None -> 0.
    | Some i -> (
      let fields = String.split_on_char ' ' (String.sub l (i + 2) (String.length l - i - 2)) in
      (* [fields] starts at the 3rd field *)
      match List.filteri (fun j _ -> j = 11 || j = 12) fields with
      | [ u; s ] -> (float_of_string u +. float_of_string s) /. 100.
      | _ -> 0.))

(* One measured phase, decoded: responses indexed by op, latencies and
   both processes' CPU time. *)
type measured = {
  phase : resp Loadgen.phase;
  resps : resp list;
  by_op : (int, resp) Hashtbl.t;
  lat_ms : float array;  (** from the due time (open) or send time (closed) *)
  failed : int;
  daemon_cpu_s : float;
}

let measure_phase ~pid client ~line ~first ~limit ~mode ~seconds =
  let kept = ref [] in
  let reduce l =
    if List.compare_length_with !kept sample_lines < 0 then kept := l :: !kept;
    read_line l
  in
  let cpu0 = cpu_s_of_pid pid in
  let phase = Loadgen.run client ~line ~reduce ~first ~limit ~mode ~seconds in
  let daemon_cpu_s = cpu_s_of_pid pid -. cpu0 in
  List.iter
    (fun l ->
      incr reader_compared;
      if read_line l <> decode l then incr reader_disagreed)
    !kept;
  let resps = List.map (fun (r, t) -> { r with arrival_ns = t }) phase.responses in
  let phase = { phase with responses = [] } in
  let by_op = Hashtbl.create (List.length resps) in
  List.iter (fun r -> if r.op >= 0 then Hashtbl.replace by_op r.op r) resps;
  let lat = ref [] and failed = ref 0 in
  for i = 0 to phase.sent - 1 do
    match Hashtbl.find_opt by_op (first + i) with
    | Some r when r.error = None && r.violations = 0 ->
      lat := (Int64.to_float (Int64.sub r.arrival_ns phase.due_ns.(i)) /. 1e6) :: !lat
    | _ -> incr failed
  done;
  { phase; resps; by_op; lat_ms = Array.of_list (List.rev !lat); failed = !failed; daemon_cpu_s }

(* Closed-loop completion rates over the sending period, by window. *)
let throughput m =
  let p = m.phase in
  let secs t = Int64.to_float (Int64.sub t p.t0_ns) /. 1e9 in
  let duration = Array.fold_left (fun acc t -> Float.max acc (secs t)) 0. p.sent_ns in
  let times =
    Array.of_list
      (List.filter_map (fun r -> if r.payload <> None then Some (secs r.arrival_ns) else None) m.resps)
  in
  if duration <= 0. then [||] else Stat.window_rates ~duration times

(* --- the two workloads' inputs ----------------------------------------- *)

type kind = Cold | Hot

type state = {
  kind : kind;
  seed : int;
  dir : string;
  daemon : daemon;
  ops : int -> Inputs.op;  (** op [k] of the measured stream *)
  rank : int -> int;  (** serve-hot: op [k]'s working-set rank *)
  ws : Inputs.op array;  (** serve-hot: the working set, by rank *)
  limit : int;  (** ops available in the stream *)
  rate : float;  (** open-loop rate, ops/s *)
  cold_payloads : string array;  (** serve-hot: payload per rank, computed cold *)
  inputs : Json.t;
}

(* Open-loop rates, fixed as a share of each workload's closed-loop
   capacity so the open phase runs near saturation, where queue wait
   responds to a change in service time.  Capacity as measured by this
   benchmark's closed loop (three sets of 20 s runs over seeds 1-10,
   2-vCPU x86-64 VM): serve-cold 52-87 ops/s, set medians 58-70 (every
   miss pays a disk-tier eviction); serve-hot 21.3-27.9k ops/s, set
   medians 22.8k-25.0k.  serve-cold runs at about 0.6 of the median,
   so that the slowest stretches of the host seen stay below 0.75: at
   44 ops/s it reached 0.85.  serve-hot runs at about 0.5: at 16k ops/s
   its load generator itself fell behind on some seeds (late_p99_ms up
   to 50) and one run's backlog grew, and at 13.5k the generator still
   ran up to 47 ms late in slow stretches of the host.  The run record
   gives rate / measured throughput as [open_loop_utilisation]. *)
let cold_rate = 38.
let hot_rate = 11500.
let hot_size = 512

(* serve-hot's stream: two loads (a traced run's untraced and traced
   halves), each the open-loop ops plus a closed loop at up to 60k ops/s. *)
let hot_stream_length ~seconds =
  2 * int_of_float ((hot_rate *. open_share *. seconds) +. (60000. *. (1. -. open_share) *. seconds))

let warm_up_pings client n =
  let ping k = Printf.sprintf {|{"api":"rchls.api/1","id":"%d","job":"ping"}|} k in
  ignore
    (Loadgen.run client ~line:ping ~reduce:ignore ~first:0 ~limit:n ~mode:(Loadgen.Closed 8)
       ~seconds:30.)

(* Cold: a fresh daemon whose disk tier starts at its entry bound
   (4096, the default), filled with entries no op asks for, as a
   long-running daemon's tier would be.  Every miss's write then evicts
   one entry, which [Diskcache.add] does by rescanning the directory:
   the cost a daemon taking distinct misses pays in steady state.  The
   filling is not timed as set-up: it stands for traffic before the
   daemon started.  The daemon is warmed with a separate set of jobs
   (their own graphs, so no measured op is ever a hit). *)
let warm_ops = 64

let prefill dir =
  let bound = (Server.default_config (Server.Unix_socket "")).Server.cache_entries in
  match Diskcache.open_dir ~max_entries:bound dir with
  | Error e -> failwith e
  | Ok store ->
    for i = 0 to bound - 1 do
      Diskcache.add store
        (Fnv.hash_string (Printf.sprintf "rchbench-filler-%d" i))
        {|{"filler":"an entry no benchmark op asks for"}|}
    done

(* Distinct jobs in the cold stream, about six times what a 20 s run
   sends at the capacity above.  A run stops sending when they run out,
   so no op repeats; the run record shows how many were used. *)
let cold_pool = 8192

let setup_cold ~seed dir =
  let stream = Inputs.cold_stream ~seed ~tag:0 ~min_ops:cold_pool in
  let warm =
    let b = Inputs.cold_block ~seed ~tag:1 0 in
    Array.sub b 0 (min warm_ops (Array.length b))
  in
  let daemon = start_daemon ~dir in
  ignore
    (Loadgen.run daemon.client
       ~line:(fun k -> Inputs.line warm.(k) k)
       ~reduce:ignore ~first:0 ~limit:(Array.length warm) ~mode:(Loadgen.Closed 16) ~seconds:30.);
  warm_up_pings daemon.client 64;
  {
    kind = Cold;
    seed;
    dir;
    daemon;
    ops = (fun k -> stream.(k));
    rank = (fun _ -> -1);
    ws = [||];
    limit = Array.length stream;
    rate = cold_rate;
    cold_payloads = [||];
    inputs =
      Json.Obj
        [
          ("stream", Inputs.props stream);
          ("bound_cells_per_graph", Json.Int Inputs.cells_per_graph);
          ("zipf_exponent", Json.Null);
          ("working_set", Json.Null);
          ("disk_tier_prefilled_entries", Json.Int (Array.length (Sys.readdir (Filename.concat dir "cache"))));
        ];
  }

(* Hot: a previous daemon on the same cache directory answers the whole
   working set once (computing it and writing the disk tier), then the
   measured daemon starts on that directory with an empty memory tier:
   first touches are disk reads, repeats memory reads. *)
let setup_hot ~seed ~seconds dir =
  let ws = Inputs.working_set ~seed ~size:hot_size in
  let n = hot_stream_length ~seconds in
  let stream = Inputs.zipf_stream ~seed ~size:hot_size n in
  let prev = start_daemon ~dir in
  let payload_of line =
    match Resp.of_string line with
    | Ok { id = Some id; result; _ } ->
      Option.map
        (fun k ->
          ( k,
            match result with
            | Ok payload -> Common.payload_string payload
            | Error e -> "error:" ^ e.message ))
        (int_of_string_opt id)
    | _ -> None
  in
  let p =
    Loadgen.run prev.client
      ~line:(fun k -> Inputs.line ws.(k) k)
      ~reduce:payload_of ~first:0 ~limit:hot_size ~mode:(Loadgen.Closed 16) ~seconds:120.
  in
  stop_daemon prev;
  let cold_payloads = Array.make hot_size "missing" in
  List.iter
    (function
      | Some (k, payload), _ when k >= 0 && k < hot_size -> cold_payloads.(k) <- payload
      | _ -> ())
    p.responses;
  let daemon = start_daemon ~dir in
  warm_up_pings daemon.client 256;
  {
    kind = Hot;
    seed;
    dir;
    daemon;
    ops = (fun k -> ws.(stream.(k)));
    rank = (fun k -> stream.(k));
    ws;
    limit = n;
    rate = hot_rate;
    cold_payloads;
    inputs =
      Json.Obj
        [
          ("working_set_ops", Inputs.props ws);
          ("zipf_exponent", Json.Float Inputs.zipf_s);
          ("working_set", Json.Int hot_size);
        ];
  }

let dispose st =
  stop_daemon st.daemon;
  Common.rm_rf st.dir

let setup kind ~seed ~seconds =
  match kind with Cold -> setup_cold ~seed | Hot -> setup_hot ~seed ~seconds

(* Untimed: the daemon's directory, and for serve-cold its full disk
   tier.  Dirty pages are then written out, so the kernel's delayed
   writeback of earlier files (about 18 MB of them: this prefill, and
   the previous run's, deleted at its exit) does not land inside the
   measured load. *)
let prepare kind _ =
  let dir =
    match kind with
    | Cold ->
      let dir = Common.fresh_dir "cold" in
      prefill (Filename.concat dir "cache");
      dir
    | Hot -> Common.fresh_dir "hot"
  in
  ignore (Sys.command "sync");
  dir

(* --- measurement -------------------------------------------------------- *)

let line st k = Inputs.line (st.ops k) k

let add_moved a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map (fun k -> (k, Common.delta [] a k + Common.delta [] b k)) keys

(* One phase; returns it with the daemon counters it moved. *)
let phase st ~first ~limit ~mode ~seconds =
  let before = daemon_counters st.daemon in
  let m =
    measure_phase ~pid:st.daemon.pid st.daemon.client ~line:(line st) ~first
      ~limit:(max 0 (min limit (st.limit - first))) ~mode ~seconds
  in
  let after = daemon_counters st.daemon in
  (m, List.map (fun (k, _) -> (k, Common.delta before after k)) after)

(* One open-loop then one closed-loop phase over the next ops of the
   stream, [seconds] in all.  Returns both phases and the daemon
   counters they moved. *)
let load st ~first ~seconds =
  let o, d1 =
    let seconds = seconds *. open_share in
    phase st ~first
      ~limit:(int_of_float (st.rate *. seconds) + 1)
      ~mode:(Loadgen.Open { rate = st.rate; gaps = Inputs.rng st.seed [ 70; first ] })
      ~seconds
  in
  if Loadgen.backlog_grew ~rate:st.rate o.phase then begin
    let a, b = Loadgen.quarter_outstanding o.phase in
    raise
      (Outcome.Invalid
         (Printf.sprintf
            "open-loop backlog grew at %.0f ops/s (median ops in flight %g in the first \
             quarter, %g in the last): the rate exceeds capacity"
            st.rate a b))
  end;
  let c, d2 =
    phase st ~first:(first + o.phase.sent) ~limit:max_int ~mode:(Loadgen.Closed window)
      ~seconds:(seconds *. (1. -. open_share))
  in
  (o, c, add_moved d1 d2)

let e2e (o, c) =
  {
    Outcome.rates = throughput c;
    lat_ms = o.lat_ms;
    attempted = o.phase.sent + c.phase.sent;
    failed = o.failed + c.failed;
  }

(* --- reference results and digests -------------------------------------- *)

let digest_ops = 256

let reference_results ops =
  let service = Service.create () in
  List.map (fun (o : Inputs.op) -> Common.result_string (Service.run_job ~service ~domains:1 o.job)) ops

(* The committed digest ([Common.digest]) of the in-process results
   ([Service.run_job ~domains:1], payloads as canonical JSON) of the
   stream's first [digest_ops] ops (serve-cold) or of the working set's
   first [digest_ops] ranks (serve-hot). *)
let digest_inputs kind ~seed =
  match kind with
  | Cold -> Array.to_list (Array.sub (Inputs.cold_stream ~seed ~tag:0 ~min_ops:digest_ops) 0 digest_ops)
  | Hot -> Array.to_list (Array.sub (Inputs.working_set ~seed ~size:hot_size) 0 digest_ops)

let reference_digest kind ~seed = Common.digest (reference_results (digest_inputs kind ~seed))

(* Output checks over every measured phase; returns the ops whose
   payload was wrong (they count as failed). *)
let verify st phases =
  let all = List.concat_map (fun m -> m.resps) phases in
  let find k = List.find_map (fun m -> Hashtbl.find_opt m.by_op k) phases in
  let errors = List.filter (fun r -> r.error <> None) all in
  Common.check "no error responses" (errors = [])
    (match errors with
    | [] -> Printf.sprintf "%d responses" (List.length all)
    | r :: _ -> Printf.sprintf "%d errors, first: %s" (List.length errors) (Option.get r.error));
  Common.check "reader-thread decoding agrees with Resp.of_string" (!reader_disagreed = 0)
    (Printf.sprintf "%d sampled lines, %d differ" !reader_compared !reader_disagreed);
  let bad_checks = List.filter (fun r -> r.violations > 0) all in
  Common.check "check jobs report zero violations" (bad_checks = [])
    (Printf.sprintf "%d check reports with violations" (List.length bad_checks));
  let payload k = match find k with Some { payload = Some p; _ } -> p | _ -> "missing" in
  match st.kind with
  | Cold ->
    (* a run too short to send the whole digest prefix (a probe's)
       requests the rest now, after the measurement *)
    let unsent = Array.of_list (List.filter (fun k -> find k = None) (List.init digest_ops Fun.id)) in
    let rest =
      measure_phase ~pid:st.daemon.pid st.daemon.client
        ~line:(fun j -> Inputs.line (st.ops unsent.(j)) j)
        ~first:0 ~limit:(Array.length unsent) ~mode:(Loadgen.Closed window) ~seconds:120.
    in
    let payload k =
      match find k with
      | Some _ -> payload k
      | None -> (
        match Array.find_index (( = ) k) unsent with
        | Some j -> (
          match Hashtbl.find_opt rest.by_op j with Some { payload = Some p; _ } -> p | _ -> "missing")
        | None -> "missing")
    in
    let got = Common.digest_fps (List.init digest_ops payload) in
    Common.check_digest ~workload:"serve-cold" ~seed:st.seed
      ~how:"daemon responses to the first 256 ops" got (fun () ->
        reference_digest Cold ~seed:st.seed);
    (* a seeded sample of the remaining ops against in-process results *)
    let ok = List.filter (fun r -> r.payload <> None && r.op >= digest_ops) all in
    let a = Array.of_list ok in
    Inputs.shuffle (Inputs.rng st.seed [ 50 ]) a;
    let sample = Array.to_list (Array.sub a 0 (min 48 (Array.length a))) in
    let refs = reference_results (List.map (fun r -> st.ops r.op) sample) in
    let wrong =
      List.filter_map
        (fun (r, e) -> if r.payload <> Some (Common.fingerprint e) then Some r.op else None)
        (List.combine sample refs)
    in
    Common.check "sampled results equal in-process results" (wrong = [])
      (Printf.sprintf "%d sampled, %d differ" (List.length sample) (List.length wrong));
    wrong
  | Hot ->
    let cold_fps = Array.map Common.fingerprint st.cold_payloads in
    let got = Common.digest_fps (Array.to_list (Array.sub cold_fps 0 digest_ops)) in
    Common.check_digest ~workload:"serve-hot" ~seed:st.seed
      ~how:"cold daemon answers to the first 256 working-set ranks" got (fun () ->
        reference_digest Hot ~seed:st.seed);
    let wrong =
      List.filter_map
        (fun r ->
          match r.payload with
          | Some p when p <> cold_fps.(st.rank r.op) -> Some r.op
          | _ -> None)
        all
    in
    let tiers t = List.length (List.filter (fun r -> r.tier = t) all) in
    Common.check "memory and disk tier payloads equal the cold payloads" (wrong = [])
      (Printf.sprintf "%d memory, %d disk, %d computed; %d differ" (tiers "memory")
         (tiers "disk") (tiers "miss") (List.length wrong));
    Common.check "first touches are disk reads" (tiers "disk" > 0)
      (Printf.sprintf "%d disk-tier answers" (tiers "disk"));
    wrong

(* serve-cold: re-request the last completed ops; the warm tiers must
   answer them with the payload computed cold. *)
let verify_tiers st last =
  let done_ops =
    List.filter (fun r -> r.payload <> None) last.resps
    |> List.sort (fun a b -> compare b.op a.op)
  in
  let sel = Array.of_list (List.filteri (fun i _ -> i < 128) done_ops) in
  let m =
    measure_phase ~pid:st.daemon.pid st.daemon.client
      ~line:(fun j -> Inputs.line (st.ops sel.(j).op) j)
      ~first:0 ~limit:(Array.length sel) ~mode:(Loadgen.Closed 16) ~seconds:60.
  in
  let bad = ref 0 and warm = ref 0 in
  Array.iteri
    (fun j (orig : resp) ->
      match Hashtbl.find_opt m.by_op j with
      | Some r ->
        if r.tier <> "miss" then incr warm;
        if r.payload <> orig.payload then incr bad
      | None -> incr bad)
    sel;
  Common.check "re-requested ops: warm tiers answer the cold payload"
    (!bad = 0 && !warm = Array.length sel)
    (Printf.sprintf "%d re-requested, %d from a warm tier, %d differ" (Array.length sel) !warm
       !bad)

(* --- traced replay -------------------------------------------------------- *)

let sources = function
  | Req.Synth s | Req.Check s -> (s.graph, s.library)
  | Req.Sweep s | Req.Explore s -> (s.graph, s.library)
  | Req.Anneal a -> (a.graph, a.library)
  | _ -> invalid_arg "sources"

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* The calls the daemon makes for one op, each in its own span under
   one [op] span: decode, resolve, key, the tiers, the engine on a
   miss, encode.  On a miss the scheduler, binder and checker are also
   called once on the winning design.  Returns the payload, which must
   equal the daemon's. *)
let replay_op ~k ~store ~mem ~service ~caches (o : Inputs.op) =
  Spans.span ~op:k "op" (fun root ->
      let sp name f = Spans.span ~parent:root ~op:k name (fun _ -> f ()) in
      let id = Some (string_of_int k) in
      let line = sp "api.request_encode" (fun () -> Req.to_string { Req.id; job = o.job }) in
      ignore (ok_or_fail (sp "api.request_decode" (fun () -> Req.of_string line)));
      let graph, library = sources o.job in
      let resolved = ok_or_fail (sp "service.resolve" (fun () -> Service.resolve graph library)) in
      let key = Option.get (ok_or_fail (sp "service.cache_key" (fun () -> Service.cache_key o.job))) in
      let compute () =
        let payload =
          match o.job with
          | Req.Synth s | Req.Check s ->
            let cache =
              match Hashtbl.find_opt caches o.graph.name with
              | Some c -> c
              | None ->
                let c = Engine.create_cache () in
                Hashtbl.replace caches o.graph.name c;
                c
            in
            let r =
              sp "engine.synthesize" (fun () ->
                  Engine.synthesize ~scheduler:`Density ~strategy:`Best ~cache ~domains:1
                    resolved.graph resolved.library ~ld:s.ld ~ad:s.ad)
            in
            Result.iter
              (fun d ->
                let version n = Design.version_of d n.Rchls_dfg.Dfg.id in
                match
                  sp "sched.density" (fun () ->
                      Density_sched.run (Design.graph d)
                        ~delay:(fun n -> (version n).Rchls_charlib.Resource.delay)
                        ~latency:(Design.latency d))
                with
                | Ok sched -> ignore (sp "binding.bind" (fun () -> Binding.bind sched ~assignment:version))
                | Error _ -> ())
              r;
            (match o.job with
            | Req.Check _ ->
              Service.payload_of_check
                (Result.map
                   (fun d ->
                     ( d,
                       List.map
                         (Format.asprintf "%a" Check.pp_violation)
                         (sp "check.design" (fun () -> Check.design_violations d)) ))
                   r)
            | _ -> Service.payload_of_synth r)
          | Req.Sweep s ->
            Service.payload_of_sweep
              (ok_or_fail
                 (sp "sweep.job" (fun () -> Service.run_sweep ~service ~resolved ~domains:1 s)))
          | Req.Explore s ->
            Service.payload_of_explore
              (ok_or_fail
                 (sp "explore.job" (fun () -> Service.run_explore ~service ~resolved ~domains:1 s)))
          | _ -> invalid_arg "replay_op"
        in
        payload
      in
      (* a hit's payload is already serialized; a miss serializes its
         payload as part of the response encoding, then stores it *)
      let tier, cached =
        match Hashtbl.find_opt mem key with
        | Some p -> (Some Resp.Memory, `Text p)
        | None -> (
          match sp "diskcache.find" (fun () -> Diskcache.find store key) with
          | Some p ->
            Hashtbl.replace mem key p;
            (Some Resp.Disk, `Text p)
          | None -> (None, `Computed (compute ())))
      in
      let cache = Option.map (fun tier -> { Resp.tier; key = Fnv.to_hex key }) tier in
      let payload, line =
        sp "api.response_encode" (fun () ->
            let p = match cached with `Text p -> p | `Computed p -> Common.payload_string p in
            (p, Resp.assemble_raw ~id ~cache p))
      in
      (match cached with
      | `Computed _ ->
        Hashtbl.replace mem key payload;
        sp "diskcache.add" (fun () -> Diskcache.add store key payload)
      | `Text _ -> ());
      ignore (ok_or_fail (sp "api.response_decode" (fun () -> Resp.of_string line)));
      payload)

(* The replay runs the traced phase's ops in op order, for at most
   [seconds] and [replay_max] ops. *)
let replay_max = 2000

let replay st ~ops ~seconds =
  let store_dir = Filename.concat st.dir "replay-cache" in
  (* serve-cold's replay writes into a tier at its bound, as the
     daemon's is *)
  if st.kind = Cold then prefill store_dir;
  let store =
    match Diskcache.open_dir store_dir with
    | Ok s -> s
    | Error e -> failwith e
  in
  (* serve-hot replays against tiers warmed the way the daemon's were:
     everything on disk, nothing in memory *)
  Array.iteri
    (fun r (o : Inputs.op) ->
      match Service.cache_key o.job with
      | Ok (Some key) -> Diskcache.add store key st.cold_payloads.(r)
      | _ -> ())
    st.ws;
  let mem = Hashtbl.create 1024 and service = Service.create () and caches = Hashtbl.create 64 in
  let t0 = Common.now_ns () in
  let wrong = ref 0 and n = ref 0 in
  List.iter
    (fun (k, expected) ->
      if Common.secs_since t0 < seconds && !n < replay_max then begin
        incr n;
        let p = replay_op ~k ~store ~mem ~service ~caches (st.ops k) in
        if Some (Common.fingerprint p) <> expected then incr wrong
      end)
    ops;
  Common.check "replayed payloads equal the daemon's" (!wrong = 0)
    (Printf.sprintf "%d ops replayed, %d differ" !n !wrong);
  !n

(* --- the run ------------------------------------------------------------- *)

let mean_of f l = Stat.mean (Array.of_list (List.map f l))

(* Daemon-side layers: times from the response envelopes of the traced
   open-loop phase [o]; tier counts and counter ratios over [phases]
   and the daemon counters they [moved].  A tier no response came from,
   or a ratio over events that never happened (engine figures on
   serve-hot, which computes nothing), is left out; the run takes it
   from a probe of another workload (main.ml). *)
let server_layers ~(o : measured) ~phases ~moved =
  let ms ns = float_of_int ns /. 1e6 in
  let ok = List.filter (fun r -> r.payload <> None) o.resps in
  let transport r =
    let i = r.op - o.phase.first in
    (Int64.to_float (Int64.sub r.arrival_ns o.phase.sent_ns.(i)) /. 1e6) -. ms r.total_ns
  in
  let all = List.concat_map (fun m -> m.resps) phases in
  let tier t = List.length (List.filter (fun r -> r.tier = t) all) in
  let count t = match tier t with 0 -> None | n -> Some (float_of_int n) in
  let misses = tier "miss" in
  let d = Common.delta [] moved in
  let mean f l = if l = [] then None else Some (mean_of f l) in
  (* only a miss waits in the queue; hits are answered on arrival *)
  let queued = List.filter (fun r -> r.tier = "miss") ok in
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, v)) v)
    [
      ("server.queue_wait_ms", mean (fun r -> ms r.queue_ns) queued);
      ("server.exec_ms", mean (fun r -> ms r.exec_ns) ok);
      ("server.self_ms", mean (fun r -> ms (r.total_ns - r.queue_ns - r.exec_ns)) ok);
      ("client.transport_ms", mean transport ok);
      ("server.tier.memory", count "memory");
      ("server.tier.disk", count "disk");
      ("server.tier.miss", count "miss");
      ("server.response_bytes", Stat.ratio_opt (d "serve.response_bytes") (d "serve.responses"));
      ("server.batch_jobs", Stat.ratio_opt misses (d "serve.batches"));
      ( "engine.cache_hit_ratio",
        Stat.ratio_opt (d "cache.hits") (d "cache.hits" + d "cache.misses") );
      ("engine.realize_per_job", Stat.ratio_opt (d "engine.realize") misses);
      ("sched.runs_per_job", Stat.ratio_opt (d "sched.runs") misses);
      ( "diskcache.hit_ratio",
        Stat.ratio_opt (d "diskcache.hits") (d "diskcache.hits" + d "diskcache.misses") );
      ("loadgen.late_p99_ms", Some (Stat.quantile 0.99 (Loadgen.lateness_ms o.phase)));
    ]

let phase_json (m : measured) =
  let seconds = Int64.to_float (Int64.sub m.phase.last_ns m.phase.t0_ns) /. 1e9 in
  Json.Obj
    [
      ("sent", Json.Int m.phase.sent);
      ("failed", Json.Int m.failed);
      ("seconds", Json.Float seconds);
      ("late_p99_ms", Json.Float (Stat.quantile 0.99 (Loadgen.lateness_ms m.phase)));
      ("max_outstanding", Json.Int (Array.fold_left max 0 m.phase.outstanding));
      ( "outstanding_median_first_last_quarter",
        let a, b = Loadgen.quarter_outstanding m.phase in
        Json.List [ Json.Float a; Json.Float b ] );
      (* which side saturates: CPU seconds per wall second of each process *)
      ("client_cpu_s", Json.Float m.phase.client_cpu_s);
      ("daemon_cpu_s", Json.Float m.daemon_cpu_s);
      ("client_cpu_share", Json.Float (m.phase.client_cpu_s /. seconds));
      ("daemon_cpu_share", Json.Float (m.daemon_cpu_s /. seconds));
    ]

let run ~repeats kind ~seed ~seconds ~trace =
  let setups, st = Outcome.repeat_setup ~repeats ~prepare:(prepare kind) ~dispose (setup kind ~seed ~seconds) in
  Fun.protect
    ~finally:(fun () -> dispose st)
    (fun () ->
      let load_s = if trace then seconds /. 2. else seconds in
      let o, c, moved = load st ~first:0 ~seconds:load_s in
      (* the daemon's peak after the untraced load, before any check *)
      let rss = Common.peak_rss_mb ~pid:st.daemon.pid () in
      let traced =
        if not trace then None
        else begin
          Spans.start ();
          let to_, tc, traced_moved = load st ~first:(o.phase.sent + c.phase.sent) ~seconds:load_s in
          let ops =
            List.sort compare
              (List.concat_map (fun m -> List.map (fun r -> (r.op, r.payload)) m.resps) [ to_; tc ])
          in
          let replayed = replay st ~ops ~seconds:load_s in
          Spans.stop ();
          (* tiers and counter ratios cover the whole run: serve-hot's
             disk reads all fall in its first phase *)
          Some
            ( (to_, tc),
              replayed,
              server_layers ~o:to_ ~phases:[ o; c; to_; tc ] ~moved:(add_moved moved traced_moved) )
        end
      in
      let phases = [ o; c ] @ match traced with Some ((a, b), _, _) -> [ a; b ] | None -> [] in
      let wrong = verify st phases in
      if kind = Cold then verify_tiers st (List.nth phases (List.length phases - 1));
      let repeated =
        match kind with
        | Cold -> 0.
        | Hot ->
          let n = o.phase.sent + c.phase.sent in
          let seen = Hashtbl.create 1024 in
          for k = 0 to n - 1 do
            Hashtbl.replace seen (st.rank k) ()
          done;
          1. -. Stat.ratio (Hashtbl.length seen) n
      in
      let closed_throughput = Stat.throughput (throughput c) in
      {
        Outcome.setups;
        untraced = e2e (o, c);
        traced = Option.map (fun (tr, _, _) -> e2e tr) traced;
        layers = (match traced with Some (_, _, l) -> l | None -> []);
        mismatched = List.length wrong;
        peak_rss_mb = rss;
        inputs =
          (match st.inputs with
          | Json.Obj l -> Json.Obj (l @ [ ("repeated_share", Json.Float repeated) ])
          | j -> j);
        details =
          [
            ("open_loop_rate_ops_s", Json.Float st.rate);
            ( "open_loop_utilisation",
              Json.Float (if closed_throughput > 0. then st.rate /. closed_throughput else 0.) );
            ("pipelining_window", Json.Int window);
            ("stream_ops_available", Json.Int st.limit);
            ( "stream_ops_sent",
              Json.Int (List.fold_left (fun n (m : measured) -> n + m.phase.sent) 0 phases) );
            ( "daemon_telemetry_counters",
              Json.Obj
                (List.filter_map
                   (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
                   moved) );
            ("open", phase_json o);
            ("closed", phase_json c);
          ]
          @ (match traced with
            | Some ((a, b), replayed, _) ->
              [
                ("traced_open", phase_json a);
                ("traced_closed", phase_json b);
                ("replayed_ops", Json.Int replayed);
              ]
            | None -> []);
      })
