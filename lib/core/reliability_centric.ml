(* The public face of the synthesis algorithm.  The actual work lives
   in [Engine]: each Figure-6 stage is a pass over a shared context,
   and [synthesize] is the pipeline driver (with the memoized
   evaluation cache always on). *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library

type failure = Engine.failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string

let pp_failure = Engine.pp_failure

type strategy = [ `Figure6 | `Bottom_up | `Best ]

let most_reliable_assignment _g lib (nd : Dfg.node) =
  Library.most_reliable lib (Op.resource_class nd.op)

let synthesize ?scheduler ?refine ?strategy ?cache ?domains ?certificate g lib ~ld
    ~ad =
  Engine.synthesize ?scheduler ?refine ?strategy ?cache ?domains ?certificate g lib
    ~ld ~ad
