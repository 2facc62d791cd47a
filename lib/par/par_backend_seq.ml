(* Sequential fallback backend of netcalc.par (OCaml 4.x, no Domain).

   Same interface as the domains backend; every chunk runs inline on
   the calling thread, in order.  Par's result assembly is identical
   in both modes, which is what makes "--jobs N" output byte-identical
   across compilers. *)

let name = "sequential"
let recommended_jobs () = 1
let in_parallel () = false

let parallel_for ~jobs:_ ~chunks body =
  for c = 0 to chunks - 1 do
    body c
  done
