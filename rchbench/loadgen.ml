(* Socket load generation against a serve daemon: one connection, one
   sending thread (the caller) and one reading thread, so responses are
   drained while requests are still being written — pipelining without
   a concurrent reader deadlocks once the socket buffer fills.

   Open loop: ops arrive as a Poisson process at [rate] — the gaps
   between due times are exponential, drawn from a seeded generator —
   and each is sent at its due time whatever the daemon is doing; its
   latency runs from the due time, so a stall is charged to every op it
   delays.  Random gaps let a queue form below saturation, as it does
   under real traffic; evenly spaced arrivals would see none until the
   rate reached capacity.  Closed
   loop: at most [window] ops are outstanding; the next op is sent as
   soon as a response frees a slot.

   The reader thread shares this process's runtime lock with the
   sender, so it does as little as it can per line: it stamps the
   arrival, hands the line to the caller's [reduce] (which keeps a
   compact record, not the line) and drops it. *)

module Client = Rchls_serve.Client
module Telemetry = Rchls_util.Telemetry

type mode =
  | Open of { rate : float;  (** ops/s *) gaps : Rchls_util.Rng.t }
  | Closed of int  (** window *)

type 'a phase = {
  first : int;  (** op index of the phase's first op *)
  sent : int;  (** ops sent, [first .. first + sent - 1] *)
  due_ns : int64 array;  (** per op sent; the send time in a closed loop *)
  sent_ns : int64 array;
  outstanding : int array;  (** ops in flight just before each send *)
  responses : ('a * int64) list;  (** reduced lines with their arrival times *)
  t0_ns : int64;
  last_ns : int64;  (** arrival of the last response *)
  errors : string list;  (** transport errors (timeouts, closed socket) *)
  client_cpu_s : float;  (** this process's CPU time (user + system) over the phase *)
}

let end_marker = "rb-end"

let end_line =
  Printf.sprintf {|{"api":"rchls.api/1","id":"%s","job":"ping"}|} end_marker

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Every response starts with the api field and then the id, so the
   end marker's answer is recognised by its first bytes. *)
let end_prefix = Printf.sprintf {|{"api":"rchls.api/1","id":"%s"|} end_marker
let is_end_marker line = String.starts_with ~prefix:end_prefix line

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run one phase: ops [first ..], at most [limit] of them, for
   [seconds].  [line k] is the wire line of op [k]; in a traced run
   each write is a [client.send] span.  [reduce] runs on the reader
   thread, once per response line. *)
let run client ~line ~reduce ~first ~limit ~mode ~seconds =
  let m = Mutex.create () and c = Condition.create () in
  let sent = ref 0 and received = ref 0 and finished = ref false in
  let responses = ref [] and errors = ref [] and failed = ref false in
  let end_seen = ref false in
  let capacity = limit in
  let due_ns = Array.make capacity 0L and sent_ns = Array.make capacity 0L in
  let outstanding = Array.make capacity 0 in
  let reader () =
    let rec loop () =
      let stop = locked m (fun () -> !finished && !end_seen && !received >= !sent) in
      if not stop then
        match Client.recv_raw client with
        | Ok l ->
          let t = Telemetry.now_ns () in
          let r = if is_end_marker l then None else Some (reduce l) in
          locked m (fun () ->
              (match r with
              | None -> end_seen := true
              | Some r ->
                responses := (r, t) :: !responses;
                incr received);
              Condition.broadcast c);
          loop ()
        | Error e ->
          locked m (fun () ->
              errors := e :: !errors;
              failed := true;
              Condition.broadcast c)
    in
    loop ()
  in
  let cpu0 = cpu_s () in
  let th = Thread.create reader () in
  let t0 = Telemetry.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let send k due =
    let inflight =
      locked m (fun () ->
          let o = !sent - !received in
          incr sent;
          o)
    in
    due_ns.(k) <- due;
    outstanding.(k) <- inflight;
    sent_ns.(k) <- Telemetry.now_ns ();
    match
      Spans.span ~op:(first + k) "client.send" (fun _ ->
          Client.send_raw client (line (first + k)))
    with
    | Ok () -> true
    | Error e ->
      locked m (fun () ->
          errors := e :: !errors;
          failed := true);
      false
  in
  let alive () = not (locked m (fun () -> !failed)) in
  (match mode with
  | Open { rate; gaps } ->
    let rec go k offset_ns =
      let due = Int64.add t0 (Int64.of_float offset_ns) in
      if k < capacity && due < t_end && alive () then begin
        let wait = Int64.sub due (Telemetry.now_ns ()) in
        if wait > 0L then Unix.sleepf (Int64.to_float wait /. 1e9);
        let gap = -.log (1. -. Rchls_util.Rng.float gaps 1.) /. rate *. 1e9 in
        if send k due then go (k + 1) (offset_ns +. gap)
      end
    in
    go 0 0.
  | Closed window ->
    let rec go k =
      if k < capacity && Telemetry.now_ns () < t_end && alive () then begin
        locked m (fun () ->
            while !sent - !received >= window && not !failed do
              Condition.wait c m
            done);
        if alive () && send k (Telemetry.now_ns ()) then go (k + 1)
      end
    in
    go 0);
  (* The end marker is a ping, answered inline: once it and every
     outstanding response are back, the reader stops instead of
     blocking on a socket with nothing left to read. *)
  locked m (fun () -> finished := true);
  if alive () then ignore (Client.send_raw client end_line);
  Thread.join th;
  let n = !sent in
  let responses = List.rev !responses in
  {
    first;
    sent = n;
    due_ns = Array.sub due_ns 0 n;
    sent_ns = Array.sub sent_ns 0 n;
    outstanding = Array.sub outstanding 0 n;
    responses;
    t0_ns = t0;
    last_ns = List.fold_left (fun acc (_, t) -> max acc t) t0 responses;
    errors = !errors;
    client_cpu_s = cpu_s () -. cpu0;
  }

(* Median ops in flight over the first and over the last quarter of a
   phase's sends. *)
let quarter_outstanding p =
  let n = Array.length p.outstanding in
  let q = max 1 (n / 4) in
  let med lo = Stat.median (Array.map float_of_int (Array.sub p.outstanding lo q)) in
  if n = 0 then (0., 0.) else (med 0, med (n - q))

(* A growing backlog: over the last quarter of an open-loop phase at
   [rate] ops/s the median number of ops in flight exceeded twice the
   first quarter's plus a slack of [backlog_slack_s] seconds of
   arrivals (at least 16 ops).  Such a phase measured the queue, not the rate, and
   is invalid.  Medians, so that one stall the daemon then drains does
   not count as growth, while a rate above capacity, which keeps the
   queue growing, does.  The slack is a time because stalls on a
   shared host last: serve-hot's median ops in flight reached 20-125
   over whole 2.5 s quarters (2-10 ms of arrivals) in phases whose
   queue then drained, while a rate even 1% above capacity leaves
   about 90 ms of arrivals queued by the last quarter of a 10 s
   phase. *)
let backlog_slack_s = 0.05

let backlog_grew ~rate p =
  Array.length p.outstanding >= 8
  &&
  let first, last = quarter_outstanding p in
  last > (2. *. first) +. Float.max 16. (rate *. backlog_slack_s)

(* How late the generator sent each op behind its due time, in ms. *)
let lateness_ms p =
  Array.mapi (fun i d -> Int64.to_float (Int64.sub p.sent_ns.(i) d) /. 1e6) p.due_ns
