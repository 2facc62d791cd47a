(** Deterministic data parallelism for the analysis engines
    ([netcalc.par]).

    The paper's evaluation is a grid of independent analyses
    (utilizations x hop counts x methods), and the fixed-point
    engine's Jacobi step is independent per server — embarrassingly
    parallel workloads.  This module runs them on a pool of OCaml 5
    domains while keeping every observable result {e byte-identical}
    to the sequential run: inputs are split by index, outputs are
    reassembled by index, and reductions fold in list order, so the
    only nondeterminism (which domain computes which chunk, in which
    order) never reaches the caller.

    On OCaml 4.x the library degrades to a sequential backend with the
    same API ({!backend} = ["sequential"]), so code written against
    it builds on the whole CI matrix.

    Worker count resolution, in decreasing priority:
    + the [?jobs] argument of the call;
    + {!set_jobs} (what [--jobs N] command lines feed);
    + the [NETCALC_JOBS] environment variable;
    + [Domain.recommended_domain_count] (OCaml 5) or 1 (OCaml 4.x).

    Nested calls (a parallel map whose body itself calls {!map}) are
    detected and run inline on the already-parallel worker, so
    composing parallel layers — bench grid over
    [Engine.compare_all] over [Fixed_point] — is safe and does not
    oversubscribe. *)

val backend : string
(** ["domains"] (OCaml 5 pool) or ["sequential"] (fallback). *)

val set_jobs : int -> unit
(** Override the default worker count for the whole process (CLI
    [--jobs]).  @raise Invalid_argument on [n < 1]. *)

val clear_jobs : unit -> unit
(** Drop the {!set_jobs} override, returning to the default:
    [NETCALC_JOBS], else the hardware recommendation. *)

val jobs : unit -> int
(** The effective worker count: the {!set_jobs} override when present,
    the default of {!clear_jobs} otherwise. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs], computed with up to [jobs] domains.
    Order is preserved.  If any application raises, the exception of
    the {e smallest failing index} is re-raised in the caller after
    in-flight chunks complete — the same exception the sequential run
    surfaces, so failure behavior is deterministic at any jobs count.
    [f] runs in an unspecified order, possibly concurrently — it must
    not rely on shared mutable state beyond what it synchronizes
    itself. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Indexed {!map}. *)

val map_reduce :
  ?jobs:int -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
(** [map_reduce ~map ~reduce init xs] maps in parallel, then folds the
    results {e sequentially, in list order} — associativity of
    [reduce] is not required and the result is deterministic. *)
