(** Cross-call memoization of whole-network analyses.

    The analysis modules ({!Decomposed}, {!Integrated}, ...) each keep
    a private {!table} and consult it from [analyze], keyed by
    {!net_key} — a structural fingerprint of the network (server and
    flow configs, source curves by {!Pwl.uid}), the {!Options.t} and
    the pairing strategy.  Structurally identical inputs anywhere in a
    process — sweep cells, repeated figures, experiments — then share
    one analysis.  A hit returns an immutable value a miss would have
    recomputed bit-identically, so results are byte-identical with the
    engine on or off (pinned by the determinism tests); disabling only
    costs recomputation.

    Tables are bounded (wholesale reset past a cap) and safe to use
    from netcalc.par worker domains.  Hits and misses are published as
    the [incremental.reuse] / [incremental.recompute] observability
    counters. *)

type key
(** Structural fingerprint; equal keys mean analyses are
    interchangeable. *)

val net_key :
  ?options:Options.t -> ?strategy:Pairing.strategy -> Network.t -> key
(** Fingerprint of everything an analysis result depends on.  Source
    curves enter by {!Pwl.uid} (interned here, on demand), so the key
    is cheap and never conflates distinct curves; omit [strategy] for
    methods that take none. *)

type 'a table

val table : unit -> 'a table
(** A fresh bounded memo table, registered with {!clear}. *)

val memoize : 'a table -> key -> (unit -> 'a) -> 'a
(** [memoize t k compute] returns the cached value for [k] or runs
    [compute], stores and returns it.  When the engine is disabled it
    always computes. *)

val note_reuse : unit -> unit
(** Count one reuse that happened outside [memoize] (e.g. a sweep cell
    served from a shared prefix pass in [Sweep_engine]). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Turn the engine on/off (on by default).  Toggling clears every
    table, so stale values can never resurface after re-enabling. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the engine forced to [b] and
    restores the previous state afterwards (exception-safe).  Used by
    measurements that must not be served from the memo — e.g. the serve
    churn benchmark's from-scratch leg. *)

val clear : unit -> unit
(** Drop every memoized analysis (subsequent calls recompute). *)

type stats = { reuse : int; recompute : int; entries : int }

val stats : unit -> stats
(** Cumulative reuse/recompute since the last [Metrics.reset] and the
    current number of live entries across all tables. *)
