(** Cross-call memoization for the incremental sweep engine.

    {!Sweep_engine} keeps one {!table} of its per-load analyses, keyed
    by the bit patterns of the tandem's parameters; nothing else in the
    library memoizes an analysis.  A key must determine its value: the
    compute closure reads only the key's components and constants, so a
    hit returns what a miss would have recomputed, bit for bit.

    Tables are bounded (wholesale reset past a cap) and safe to use
    from netcalc.par worker domains.  Hits and misses are published as
    the [incremental.reuse] / [incremental.recompute] observability
    counters. *)

type ('k, 'v) table

val table : unit -> ('k, 'v) table
(** A fresh bounded memo table.  Keys are hashed and compared
    structurally. *)

val memoize : ('k, 'v) table -> 'k -> (unit -> 'v) -> 'v
(** [memoize t k compute] returns the value kept for [k] or runs
    [compute] (outside the lock), keeps and returns it.  Two workers
    missing on one key may both compute; the first to finish is
    kept. *)

val note_reuse : unit -> unit
(** Count one reuse that happened outside [memoize] (a sweep cell
    served from a shared prefix pass in [Sweep_engine]). *)
