(* Seeded workload generation.  Everything the program under test
   receives is made here from the workload seed alone, so one seed
   always gives byte-identical request streams.

   Graphs come from the [Rchls_check.Gen] corpus families.  They are
   stratified: a block holds one graph per (family, size) stratum —
   4 families x 12 sizes (4..15 nodes) — and the seed draws each
   graph's operation mix, which bound cells of its [Explore.plan]
   plane are requested, the job kinds and the order.  Stratifying
   keeps the cost mix of a run the same from seed to seed, so two
   seeds measure the same thing and a claim checked on a held-out seed
   means something. *)

module Gen = Rchls_check.Gen
module Rng = Rchls_util.Rng
module Fnv = Rchls_util.Fnv
module Json = Rchls_util.Json
module Req = Rchls_api.Request
module Explore = Rchls_experiments.Explore
module Library = Rchls_charlib.Library
module Dfg = Rchls_dfg.Dfg
module Benchmarks = Rchls_dfg.Benchmarks

let rng seed parts =
  Rng.create
    (Int64.to_int (List.fold_left Fnv.fold_int (Fnv.fold_int Fnv.seed seed) parts))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let pick r l = List.nth l (Rng.int r (List.length l))

(* --- graphs ------------------------------------------------------------ *)

type graph = {
  name : string;
  nodes : int;
  source : Req.source;
  dfg : Dfg.t;
  lds : int list;  (** the [Explore.plan] bound plane *)
  ads : int list;
}

let strata = 4 * 12

let corpus_graph ~seed ~tag i =
  let family = List.nth Gen.families (i mod 4) in
  let size = 4 + (i / 4 mod 12) in
  let spec = Gen.family_spec family ~size (rng seed [ tag; i ]) in
  let name = Printf.sprintf "t%d-%d-%s" tag i (Gen.family_name family) in
  let dfg = Gen.graph_of_spec ~name spec in
  let lds, ads = Explore.plan dfg Library.table1 in
  {
    name;
    nodes = Array.length spec.Gen.ops;
    source = Req.Inline (Gen.spec_to_text ~name spec);
    dfg;
    lds;
    ads;
  }

let named_graph name =
  let dfg = Option.get (Benchmarks.find name) in
  let lds, ads = Explore.plan dfg Library.table1 in
  { name; nodes = Dfg.node_count dfg; source = Req.Named name; dfg; lds; ads }

let builtins = [ "fig4"; "diffeq"; "ewf"; "fir16" ]

(* --- ops ------------------------------------------------------------------ *)

type op = {
  job : Req.job;
  graph : graph;
  base : string;  (** the request's wire line without an id *)
}

let make_op graph job = { job; graph; base = Req.to_string { Req.id = None; job } }

(* The wire line of op [k]: the id spliced in front of the canonical
   encoding (field order is free in the wire format). *)
let line op k =
  Printf.sprintf {|{"id":"%d",%s|} k
    (String.sub op.base 1 (String.length op.base - 1))

let synth graph ~ld ~ad =
  {
    Req.graph = graph.source;
    library = Req.Lib_default;
    ld;
    ad;
    strategy = Req.Best;
    scheduler = Req.Density;
  }

let sweep_params graph ~approach ~lds ~ads =
  {
    Req.graph = graph.source;
    library = Req.Lib_default;
    lds;
    ads;
    approach;
    scheduler = Req.Density;
  }

let cells g = List.concat_map (fun ld -> List.map (fun ad -> (ld, ad)) g.ads) g.lds

(* A sorted sample of [n] distinct values of [l] (all of [l] when it is
   shorter). *)
let sample r n l =
  let a = Array.of_list l in
  shuffle r a;
  List.sort_uniq compare (Array.to_list (Array.sub a 0 (min n (Array.length a))))

(* --- serve-cold: distinct synth/check jobs ------------------------------ *)

(* Block [b]: [cells_per_graph] bound cells of one fresh graph per
   stratum, evenly spaced over its plan (row-major) from a seeded
   offset, every fourth one a [check] job, shuffled.  Graph names carry
   the index, so no two jobs of the stream share a cache key.  Evenly
   spaced cells keep the mix of cheap (infeasible) and costly cells the
   same from seed to seed.  Jobs on one graph share the daemon's engine
   cache for that graph; small blocks spread that warming evenly over
   the stream, so any stretch of it costs about the same. *)
let cells_per_graph = 8

let cold_block ~seed ~tag b =
  let r = rng seed [ tag; 1000 + b ] in
  let ops =
    Array.of_list
      (List.concat_map
         (fun j ->
           let g = corpus_graph ~seed ~tag ((b * strata) + j) in
           let cs = Array.of_list (cells g) in
           let n = Array.length cs in
           let k = min cells_per_graph n in
           let offset = Rng.int r (max 1 (n / k)) in
           List.init k (fun i ->
               let ld, ad = cs.(min (n - 1) (offset + (i * n / k))) in
               let s = synth g ~ld ~ad in
               make_op g (if i mod 4 = 1 then Req.Check s else Req.Synth s)))
         (List.init strata Fun.id))
  in
  shuffle r ops;
  ops

let cold_stream ~seed ~tag ~min_ops =
  let rec go b acc n =
    if n >= min_ops then Array.concat (List.rev acc)
    else
      let blk = cold_block ~seed ~tag b in
      go (b + 1) (blk :: acc) (n + Array.length blk)
  in
  go 0 [] 0

(* --- serve-hot: a Zipf-skewed working set ------------------------------- *)

let zipf_s = 0.8

(* Rank [r]'s kind is fixed by [r mod 10] — six synth, one check, two
   sweep, one explore — so every seed spreads the same traffic share
   over each kind; a third of the ranks name a built-in benchmark, the
   rest carry an inline corpus graph.  Within each kind, graphs are
   dealt in turn — the built-ins in order, the corpus strata (family x
   size) in a fixed order that spreads sizes — and so are sweep and
   explore approaches, so every seed's set has the same graph sizes
   and approaches per kind: serve-hot's set-up computes the whole set,
   and its cost then depends little on the seed.  The seed picks the
   corpus graphs, cells and sweep grids.  A duplicate is redrawn from
   the corpus, so the set has exactly [size] distinct requests (the
   built-ins admit only 12 distinct explores). *)
let kind_of = function
  | 0 | 1 | 2 | 3 | 4 | 5 -> `Synth
  | 6 -> `Check
  | 7 | 8 -> `Sweep
  | _ -> `Explore

let working_set ~seed ~size =
  let r = rng seed [ 20 ] in
  let named = List.map named_graph builtins in
  let inline = List.init strata (fun i -> corpus_graph ~seed ~tag:2 i) in
  (* 7 is prime to [strata]: a permutation whose every prefix spans
     the sizes *)
  let order = Array.init strata (fun i -> i * 7 mod strata) in
  let dealt = Hashtbl.create 8 in
  let deal key =
    let k = Option.value ~default:0 (Hashtbl.find_opt dealt key) in
    Hashtbl.replace dealt key (k + 1);
    k
  in
  let seen = Hashtbl.create size in
  let rec draw ?(redraw = false) rank =
    let kind = rank mod 10 in
    let named_rank = rank mod 3 = 0 && not redraw in
    let k = deal (kind_of kind, named_rank) in
    let g =
      if named_rank then List.nth named (k mod List.length named)
      else List.nth inline order.(k mod strata)
    in
    let job =
      match kind with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
        let ld, ad = pick r (cells g) in
        Req.Synth (synth g ~ld ~ad)
      | 6 ->
        let ld, ad = pick r (cells g) in
        Req.Check (synth g ~ld ~ad)
      | 7 | 8 ->
        Req.Sweep
          (sweep_params g
             ~approach:(if k mod 2 = 0 then Req.Ours else Req.Baseline)
             ~lds:(sample r 2 g.lds) ~ads:(sample r 3 g.ads))
      | _ ->
        Req.Explore
          (sweep_params g
             ~approach:(List.nth [ Req.Ours; Req.Baseline; Req.Combined ] (k mod 3))
             ~lds:[] ~ads:[])
    in
    let op = make_op g job in
    if Hashtbl.mem seen op.base then draw ~redraw:true rank
    else begin
      Hashtbl.replace seen op.base ();
      op
    end
  in
  Array.init size (fun rank -> draw rank)

(* [n] ranks drawn from Zipf([zipf_s]) over [size] ranks. *)
let zipf_stream ~seed ~size n =
  let r = rng seed [ 21 ] in
  let cdf = Array.make size 0. in
  let acc = ref 0. in
  for i = 0 to size - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** zipf_s));
    cdf.(i) <- !acc
  done;
  Array.init n (fun _ ->
      let u = Rng.float r !acc in
      let lo = ref 0 and hi = ref (size - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) <= u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* --- batch-explore: one explore, anneal and combined sweep per graph -- *)

let anneal_moves = 1000

let batch_jobs ~seed ~graphs =
  let r = rng seed [ 30 ] in
  let ops =
    Array.of_list
      (List.concat_map
         (fun i ->
           (* sizes 4, 6, .., 14: six per family *)
           let g = corpus_graph ~seed ~tag:3 ((i mod 4) + (8 * (i / 4))) in
           let knee_ld = List.nth g.lds (List.length g.lds / 2)
           and knee_ad = List.nth g.ads (List.length g.ads / 3) in
           [
             make_op g
               (Req.Explore
                  (sweep_params g ~approach:Req.Ours ~lds:[] ~ads:[]));
             make_op g
               (Req.Anneal
                  {
                    Req.graph = g.source;
                    library = Req.Lib_default;
                    ld = knee_ld;
                    ad = knee_ad;
                    strategy = Req.Best;
                    scheduler = Req.Density;
                    seed = 1 + Rng.int r 1000;
                    moves = anneal_moves;
                    chains = 4;
                    exchange = 50;
                  });
             make_op g
               (Req.Sweep
                  (sweep_params g ~approach:Req.Combined
                     ~lds:(sample r 2 g.lds) ~ads:(sample r 4 g.ads)));
           ])
         (List.init graphs Fun.id))
  in
  shuffle r ops;
  ops

(* --- characterize: one campaign seed per op ---------------------------- *)

let campaign_seed ~seed k =
  1 + (Int64.to_int (Fnv.fold_int (Fnv.fold_int Fnv.seed seed) (40_000 + k)) land 0x3fffffff)

(* --- input properties, for the run record ------------------------------- *)

let props ops =
  let graphs = Hashtbl.create 256 in
  Array.iter (fun o -> Hashtbl.replace graphs o.graph.name o.graph) ops;
  let gs = Hashtbl.fold (fun _ g acc -> g :: acc) graphs [] in
  let hist = Hashtbl.create 16 in
  List.iter
    (fun g ->
      Hashtbl.replace hist g.nodes (1 + Option.value ~default:0 (Hashtbl.find_opt hist g.nodes)))
    gs;
  let inline =
    Array.fold_left
      (fun n o -> match o.graph.source with Req.Inline _ -> n + 1 | Req.Named _ -> n)
      0 ops
  in
  let kinds = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      let k = Req.job_kind o.job in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
    ops;
  let cells_per_graph =
    List.map (fun g -> float_of_int (List.length g.lds * List.length g.ads)) gs
    |> Array.of_list
  in
  let sorted_assoc h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  Json.Obj
    [
      ("ops", Json.Int (Array.length ops));
      ("graphs", Json.Int (List.length gs));
      ( "node_size_histogram",
        Json.Obj (List.map (fun (k, v) -> (string_of_int k, Json.Int v)) (sorted_assoc hist)) );
      ("inline_share", Json.Float (Stat.ratio inline (Array.length ops)));
      ("named_share", Json.Float (Stat.ratio (Array.length ops - inline) (Array.length ops)));
      ("kinds", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_assoc kinds)));
      ("plan_cells_per_graph_mean", Json.Float (Stat.mean cells_per_graph));
    ]
