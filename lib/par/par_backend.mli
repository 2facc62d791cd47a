(** Build-time-selected execution backend for {!Par}.

    Two implementations share this interface (see the dune rules in
    this directory):
    - [par_backend_domains.ml] (OCaml >= 5.0): a persistent pool of
      [Domain.t] workers fed through a generation-stamped job slot;
    - [par_backend_seq.ml] (OCaml 4.x): a sequential fallback that
      runs every chunk inline on the calling thread.

    User code never touches this module directly; {!Par} layers the
    list API, chunking policy, jobs resolution and exception transport
    on top. *)

val name : string
(** ["domains"] or ["sequential"] — reported by benchmarks so recorded
    timings can be attributed to the right execution mode. *)

val recommended_jobs : unit -> int
(** Hardware-derived default worker count
    ([Domain.recommended_domain_count] on OCaml 5, [1] on 4.x). *)

val in_parallel : unit -> bool
(** True while the calling thread is executing a chunk body of some
    enclosing {!parallel_for}.  {!Par} uses this to run nested
    parallel calls inline instead of deadlocking on or oversubscribing
    the pool. *)

val parallel_for : jobs:int -> chunks:int -> (int -> unit) -> unit
(** [parallel_for ~jobs ~chunks body] runs [body c] exactly once for
    every [c] in [0 .. chunks - 1], using at most [jobs] threads of
    execution (the caller participates).  [body] must not raise — the
    {!Par} layer catches and transports exceptions itself.  Returns
    once every chunk has completed.  Top-level invocations are
    serialized internally; reentrant calls from a chunk body are
    forbidden (guard with {!in_parallel}). *)
