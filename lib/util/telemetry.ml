(* Process-global registry.  Counter cells are sharded arrays of Atomic
   ints so domains bump them without contending on one cache line; the
   hashtables themselves are only mutated under [Registry.lock] (cell
   creation is rare, bumps are hot).  Reads aggregate across the
   shards, which is exact once the writing domains have been joined.
   Span durations land in log2 histograms, and a span's cumulative
   timer is its histogram's sum: there is no separate timer record. *)

type hist = {
  count : int;
  sum_ns : int64;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int64;
}

(* Power of two so the shard pick is one mask of the domain id.  8
   shards already separates the handful of worker domains the pool
   spawns at a time. *)
let shards = 8

type cell = int Atomic.t array

(* Atomics allocated back to back share cache lines; interleaving a
   dead 7-word block between them spaces the mutable words ~64 bytes
   apart (best effort — the GC may compact, but allocation order is
   usually preserved). *)
let make_cell () : cell =
  Array.init shards (fun _ ->
      let a = Atomic.make 0 in
      ignore (Sys.opaque_identity (Array.make 7 0));
      a)

let shard_of_domain () = (Domain.self () :> int) land (shards - 1)

let cell_add (c : cell) n = ignore (Atomic.fetch_and_add c.(shard_of_domain ()) n)

let cell_value (c : cell) = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

let cell_reset (c : cell) = Array.iter (fun a -> Atomic.set a 0) c

(* --- registry ------------------------------------------------------ *)

module Registry = struct
  let lock = Mutex.create ()

  let find_or_create tbl make name =
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None ->
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt tbl name with
          | Some c -> c
          | None ->
            let c = make () in
            Hashtbl.add tbl name c;
            c)

  let iter tbl f = Mutex.protect lock (fun () -> Hashtbl.iter (fun _ c -> f c) tbl)

  let snapshot tbl value =
    let xs =
      Mutex.protect lock (fun () ->
          Hashtbl.fold (fun name c acc -> (name, value c) :: acc) tbl [])
    in
    List.sort (fun (a, _) (b, _) -> compare a b) xs
end

(* --- log2 histogram cells ------------------------------------------ *)

(* Log-scale latency histogram: bucket [i] counts observations in
   [2^i, 2^(i+1)) ns (bucket 0 holds everything below 2 ns).  One
   Atomic per bucket — observations come from span completions, which
   are orders of magnitude rarer than counter bumps. *)
module Hist = struct
  let buckets = 63

  type t = {
    bucket : int Atomic.t array;
    count : cell;
    sum : cell;
    max : int Atomic.t;
  }

  let create () =
    {
      bucket = Array.init buckets (fun _ -> Atomic.make 0);
      count = make_cell ();
      sum = make_cell ();
      max = Atomic.make 0;
    }

  let bucket_of ns =
    if ns <= 1 then 0
    else begin
      let i = ref 0 and v = ref ns in
      while !v > 1 do
        incr i;
        v := !v lsr 1
      done;
      min !i (buckets - 1)
    end

  let observe h ns =
    (* Clamp into native-int range before converting: [Int64.to_int]
       wraps 2^63-1 to -1 on 63-bit ints, turning the largest duration
       into the smallest. *)
    let v =
      if Int64.compare ns 0L < 0 then 0
      else if Int64.compare ns (Int64.of_int max_int) > 0 then max_int
      else Int64.to_int ns
    in
    ignore (Atomic.fetch_and_add h.bucket.(bucket_of v) 1);
    cell_add h.count 1;
    cell_add h.sum v;
    (* Monotone max via CAS retry. *)
    let rec bump () =
      let cur = Atomic.get h.max in
      if v > cur && not (Atomic.compare_and_set h.max cur v) then bump ()
    in
    bump ()

  let count h = cell_value h.count
  let sum_ns h = Int64.of_int (cell_value h.sum)

  let reset h =
    Array.iter (fun a -> Atomic.set a 0) h.bucket;
    cell_reset h.count;
    cell_reset h.sum;
    Atomic.set h.max 0

  (* Quantile estimate over merged bucket counts: find the bucket where
     the cumulative count crosses [q * total] and interpolate linearly
     inside its [2^i, 2^(i+1)) range.  [ldexp] keeps the bounds of the
     bucket holding [max_int] positive where [1 lsl 62] would wrap. *)
  let quantile merged total max_v q =
    if total = 0 then 0.
    else begin
      let rank = q *. float_of_int total in
      let acc = ref 0. and result = ref None in
      (try
         for i = 0 to buckets - 1 do
           let c = float_of_int merged.(i) in
           if c > 0. then begin
             let next = !acc +. c in
             if next >= rank then begin
               let lo = if i = 0 then 0. else Float.ldexp 1. i in
               let hi = Float.ldexp 1. (i + 1) in
               result := Some (lo +. ((hi -. lo) *. ((rank -. !acc) /. c)));
               raise Exit
             end;
             acc := next
           end
         done
       with Exit -> ());
      (* The in-bucket interpolation can overshoot the bucket's actual
         occupants; the exact max is a tighter bound. *)
      let cap = float_of_int max_v in
      match !result with Some v -> Float.min v cap | None -> cap
    end

  (* Concurrent writers may land between these reads; a snapshot taken
     while they run is approximate, exact once they have stopped. *)
  let stat hs =
    let merged = Array.make buckets 0 in
    let count = ref 0 and sum = ref 0 and max_v = ref 0 in
    List.iter
      (fun h ->
        Array.iteri (fun i b -> merged.(i) <- merged.(i) + Atomic.get b) h.bucket;
        count := !count + cell_value h.count;
        sum := !sum + cell_value h.sum;
        max_v := max !max_v (Atomic.get h.max))
      hs;
    {
      count = !count;
      sum_ns = Int64.of_int !sum;
      p50_ns = quantile merged !count !max_v 0.5;
      p90_ns = quantile merged !count !max_v 0.9;
      p99_ns = quantile merged !count !max_v 0.99;
      max_ns = Int64.of_int !max_v;
    }
end

let counters_tbl : (string, cell) Hashtbl.t = Hashtbl.create 32
let hists_tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 16

(* Per-shard [Atomic.fetch_and_add]s have no observable intermediate
   states we rely on; sums are exact after domains join. *)
let add name n = cell_add (Registry.find_or_create counters_tbl make_cell name) n

let incr name = add name 1

let counter name =
  match Hashtbl.find_opt counters_tbl name with None -> 0 | Some c -> cell_value c

let counters () = Registry.snapshot counters_tbl cell_value

let now_ns () = Monotonic_clock.now ()

(* --- histograms ---------------------------------------------------- *)

let observe name ns = Hist.observe (Registry.find_or_create hists_tbl Hist.create name) ns

let histogram name =
  match Hashtbl.find_opt hists_tbl name with
  | Some h when Hist.count h > 0 -> Some (Hist.stat [ h ])
  | _ -> None

let histograms () =
  List.filter_map
    (fun (name, h) -> if Hist.count h = 0 then None else Some (name, Hist.stat [ h ]))
    (Registry.snapshot hists_tbl Fun.id)

let timers () = Registry.snapshot hists_tbl Hist.sum_ns

let reset () =
  Registry.iter counters_tbl cell_reset;
  Registry.iter hists_tbl Hist.reset

(* --- rendering ----------------------------------------------------- *)

let format_ns ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Printf.sprintf "%Ld ns" ns
  else if f < 1e6 then Printf.sprintf "%.2f us" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else Printf.sprintf "%.3f s" (f /. 1e9)

let format_ns_f f =
  if f < 1e3 then Printf.sprintf "%.0f ns" f
  else if f < 1e6 then Printf.sprintf "%.2f us" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else Printf.sprintf "%.3f s" (f /. 1e9)

let render () =
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  let ts = List.filter (fun (_, v) -> v <> 0L) (timers ()) in
  let hs = histograms () in
  if cs = [] && ts = [] && hs = [] then ""
  else begin
    let t = Tablefmt.create ~aligns:[ Tablefmt.Left; Right ] [ "metric"; "value" ] in
    List.iter (fun (name, v) -> Tablefmt.add_row t [ name; string_of_int v ]) cs;
    if cs <> [] && ts <> [] then Tablefmt.add_sep t;
    List.iter (fun (name, ns) -> Tablefmt.add_row t [ name; format_ns ns ]) ts;
    if (cs <> [] || ts <> []) && hs <> [] then Tablefmt.add_sep t;
    List.iter
      (fun (name, h) ->
        Tablefmt.add_row t
          [
            name ^ " [hist]";
            Printf.sprintf "n=%d p50=%s p90=%s p99=%s max=%s" h.count
              (format_ns_f h.p50_ns) (format_ns_f h.p90_ns) (format_ns_f h.p99_ns)
              (format_ns h.max_ns);
          ])
      hs;
    Tablefmt.render t
  end
