(* Live-daemon metrics on top of Telemetry: gauges and rolling-window
   histograms, plus the two exposition encoders.  The design rule is
   the same as Telemetry's — writers never contend on a lock in the
   hot path.  Gauges are single Atomics (set/add are one instruction);
   rolling histograms take a mutex only to rotate a stale slice, which
   happens once per slice period per slice, not per observation.  The
   registry lock and the log2 histogram cell are Telemetry's. *)

module Registry = Telemetry.Registry

let start_ns = Telemetry.now_ns ()

let uptime_ns () = Int64.sub (Telemetry.now_ns ()) start_ns

(* --- gauges -------------------------------------------------------- *)

(* Gauges are read as often as they are written (queue depth moves on
   every enqueue/dequeue) and never aggregated, so a single Atomic per
   gauge beats a sharded cell: [set] must be a plain store, and
   sharding would make it a read-modify-write over 8 slots. *)
let gauges_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16

let gauge_cell = Registry.find_or_create gauges_tbl (fun () -> Atomic.make 0)

let gauge_set name v = Atomic.set (gauge_cell name) v

let gauge_add name d = ignore (Atomic.fetch_and_add (gauge_cell name) d)

let gauge name =
  match Hashtbl.find_opt gauges_tbl name with
  | None -> 0
  | Some c -> Atomic.get c

let gauges () = Registry.snapshot gauges_tbl Atomic.get

(* --- rolling-window histograms ------------------------------------- *)

module Rolling = struct
  type stat = {
    count : int;
    sum_ns : int64;
    p50_ns : float;
    p90_ns : float;
    p99_ns : float;
    max_ns : int64;
    window_ns : int64;
  }

  (* One slice of the window.  [epoch] is the absolute slice index
     (now / slice_ns) whose observations the slice currently holds;
     a slice is reused for epoch e+n, e+2n, ... and lazily zeroed the
     first time a writer or reader touches it in its new epoch.
     [min_int] marks "never written". *)
  type slice = { epoch : int Atomic.t; hist : Telemetry.Hist.t; lock : Mutex.t }

  type t = { slice_ns : int64; window_ns : int64; slices : slice array }

  let make_slice () =
    { epoch = Atomic.make min_int; hist = Telemetry.Hist.create (); lock = Mutex.create () }

  let create ?(window_ns = 60_000_000_000L) ?(slices = 12) () =
    let slices = max 2 slices in
    if Int64.compare window_ns (Int64.of_int slices) < 0 then
      invalid_arg "Metrics.Rolling.create: window shorter than one ns per slice";
    let slice_ns = Int64.div window_ns (Int64.of_int slices) in
    { slice_ns; window_ns; slices = Array.init slices (fun _ -> make_slice ()) }

  let clamp_now now = if Int64.compare now 0L < 0 then 0L else now

  let epoch_of t now = Int64.to_int (Int64.div (clamp_now now) t.slice_ns)

  (* Rotate [s] forward to [idx] if it still holds an older epoch.
     Under the mutex so concurrent rotators reset at most once; the
     double-check makes late arrivals a no-op. *)
  let rotate_to s idx =
    if Atomic.get s.epoch <> idx then
      Mutex.protect s.lock (fun () ->
          if Atomic.get s.epoch < idx then begin
            Telemetry.Hist.reset s.hist;
            Atomic.set s.epoch idx
          end)

  let observe ?now_ns t v =
    let now = match now_ns with Some n -> n | None -> Telemetry.now_ns () in
    let idx = epoch_of t now in
    let s = t.slices.(idx mod Array.length t.slices) in
    rotate_to s idx;
    (* If another writer already rotated the slot past [idx] this
       observation fell out of the window between the clock read and
       here; dropping it is the correct accounting. *)
    if Atomic.get s.epoch = idx then Telemetry.Hist.observe s.hist v

  let of_hist ~window_ns (h : Telemetry.hist) =
    {
      count = h.count;
      sum_ns = h.sum_ns;
      p50_ns = h.p50_ns;
      p90_ns = h.p90_ns;
      p99_ns = h.p99_ns;
      max_ns = h.max_ns;
      window_ns;
    }

  let empty_stat ~window_ns = of_hist ~window_ns (Telemetry.Hist.stat [])

  (* Merge the slices whose epoch lies inside the window ending at
     [now]; counts never decrease within an epoch, so a snapshot taken
     under concurrent writers stays internally consistent enough. *)
  let stat ?now_ns t =
    let now = match now_ns with Some n -> n | None -> Telemetry.now_ns () in
    let idx = epoch_of t now in
    let min_epoch = idx - Array.length t.slices + 1 in
    let live =
      Array.fold_right
        (fun s acc ->
          let e = Atomic.get s.epoch in
          if e >= min_epoch && e <= idx then s.hist :: acc else acc)
        t.slices []
    in
    of_hist ~window_ns:t.window_ns (Telemetry.Hist.stat live)

  let clear t =
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            Telemetry.Hist.reset s.hist;
            Atomic.set s.epoch min_int))
      t.slices
end

let windows_tbl : (string, Rolling.t) Hashtbl.t = Hashtbl.create 16

let window = Registry.find_or_create windows_tbl (fun () -> Rolling.create ())

let observe_window name ns = Rolling.observe (window name) ns

let windows () = Registry.snapshot windows_tbl (fun w -> Rolling.stat w)

(* --- snapshot and exposition --------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  windows : (string * Rolling.stat) list;
}

let snapshot () =
  { counters = Telemetry.counters (); gauges = gauges (); windows = windows () }

let prometheus_name name =
  let b = Buffer.create (String.length name + 6) in
  Buffer.add_string b "rchls_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let seconds_of_ns ns = Int64.to_float ns /. 1e9

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_prometheus snap =
  let b = Buffer.create 2048 in
  let series name typ rows =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    List.iter
      (fun (labels, v) ->
        Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels v))
      rows
  in
  series "rchls_uptime_seconds" "gauge"
    [ ("", prom_float (seconds_of_ns (uptime_ns ()))) ];
  List.iter
    (fun (name, v) ->
      series (prometheus_name name ^ "_total") "counter"
        [ ("", string_of_int v) ])
    snap.counters;
  List.iter
    (fun (name, v) ->
      series (prometheus_name name) "gauge" [ ("", string_of_int v) ])
    snap.gauges;
  List.iter
    (fun (name, (s : Rolling.stat)) ->
      let m = prometheus_name name ^ "_seconds" in
      series m "summary"
        [
          ("{quantile=\"0.5\"}", prom_float (s.p50_ns /. 1e9));
          ("{quantile=\"0.9\"}", prom_float (s.p90_ns /. 1e9));
          ("{quantile=\"0.99\"}", prom_float (s.p99_ns /. 1e9));
        ];
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" m (prom_float (seconds_of_ns s.sum_ns)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m s.count))
    snap.windows;
  Buffer.contents b

let window_stat_json (s : Rolling.stat) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum_ns", Json.Int (Int64.to_int s.sum_ns));
      ("p50_ns", Json.Float s.p50_ns);
      ("p90_ns", Json.Float s.p90_ns);
      ("p99_ns", Json.Float s.p99_ns);
      ("max_ns", Json.Int (Int64.to_int s.max_ns));
      ("window_ns", Json.Int (Int64.to_int s.window_ns));
    ]

let to_json snap =
  let fields value xs = Json.Obj (List.map (fun (n, v) -> (n, value v)) xs) in
  Json.Obj
    [
      ("counters", fields (fun v -> Json.Int v) snap.counters);
      ("gauges", fields (fun v -> Json.Int v) snap.gauges);
      ("windows", fields window_stat_json snap.windows);
    ]

let reset () =
  Registry.iter gauges_tbl (fun c -> Atomic.set c 0);
  Registry.iter windows_tbl Rolling.clear
