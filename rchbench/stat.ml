(* Order statistics over one run's samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quantile q a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else s.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The highest percentile with at least ten samples beyond it: the
   sample with exactly ten larger ones.  Returns the value and that
   percentile; with ten samples or fewer it is the maximum, at 100. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (0., 100.)
  else if n <= 10 then (s.(n - 1), 100.)
  else (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* A ratio over events that may not have happened in a run: [None]
   (not measured) rather than 0 when there were none. *)
let ratio_opt num den = if den = 0 then None else Some (ratio num den)
let per_s_opt n s = if s > 0. then Some (float_of_int n /. s) else None

(* Robust run-level estimates.  A shared machine steals CPU in bursts;
   a median over windows of the run keeps one burst from moving the
   run's figure. *)

(* Completion rates over equal windows of [0, duration] ([times] in
   seconds from the start; later completions are ignored).  Windows are
   at least a second and hold about 200 completions; a short run is one
   window. *)
let window_rates ~duration times =
  let n = Array.fold_left (fun c t -> if t >= 0. && t < duration then c + 1 else c) 0 times in
  let k = max 1 (min (int_of_float duration) (n / 200)) in
  let w = duration /. float_of_int k in
  let counts = Array.make k 0 in
  Array.iter
    (fun t ->
      let i = int_of_float (t /. w) in
      if t >= 0. && i < k then counts.(i) <- counts.(i) + 1)
    times;
  Array.map (fun c -> float_of_int c /. w) counts

(* Consecutive chunks of at least 200 samples (time order), so a chunk's
   [tail] is its 95th percentile; one chunk below 400 samples.  A median
   over many chunks is steady where one run-wide extreme percentile
   follows the host's scheduling hiccups. *)
let chunks a =
  let n = Array.length a in
  let k = max 1 (n / 200) in
  let size = n / k in
  Array.init k (fun i -> Array.sub a (i * size) (if i = k - 1 then n - (i * size) else size))

(* The reported end-to-end estimates. *)
let throughput rates = median rates
let p50 lat = median lat

(* [tail] per chunk, median over the chunks; the percentile is the
   first chunk's. *)
let tail_latency a =
  let tails = Array.map tail (chunks a) in
  (median (Array.map fst tails), snd tails.(0))
