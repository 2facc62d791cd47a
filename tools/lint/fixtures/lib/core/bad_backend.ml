(* Seeded violation for the curve-repr rule: this file pretends to be
   engine code (lib/core), which builds curves only with exact
   constructions.  Calls into the min-plus kernels stay clean; the
   Pwl.of_sampler reconstruction from samples is flagged. *)

let smooth alpha beta = Minplus.conv alpha beta
let end_to_end curves = Minplus.conv_list curves
let reich g = Minplus.conv_with_rate ~rate:1. g
let output alpha beta = Minplus.deconv alpha beta
let probe eval = Pwl.of_sampler ~candidates:[ 0. ] ~eval

(* Scalar kernels stay allowed too. *)
let busy agg = Minplus.busy_period ~agg ~rate:1.
