(** Algorithm Decomposed — the decomposition-based baseline
    (Cruz [8, 9]; paper Sec. 1.1 and 4.2).

    The network is analyzed one server at a time in topological order:
    the local worst-case delay is computed from the aggregate input
    envelope, each flow's envelope is inflated by that local delay
    (Cruz's output characterization), and the end-to-end bound is the
    sum of the local bounds along the route.  This over-estimates
    because it charges every flow the worst case at {e every} hop.

    The per-server step and every accessor below are {!Forward}'s; this
    engine is its full-topological-order driver plus a memo over
    structurally equal (network, options) inputs.  [t] stays abstract
    so that no caller can mutate a memoized result through
    {!Forward.set_network} or {!Forward.apply}.

    A per-hop backlog ({!local_backlog}, and so {!flow_backlog}) is
    computed on its first read and kept in [t]: later reads, from any
    domain, return the kept value.  Nothing changes the pass after
    {!analyze}, so a kept value never goes stale.  The server-level
    accessors compute on every call.

    FIFO servers use the aggregate bound [sup (G t / C - t)]; static
    priority, EDF and GPS servers use the corresponding substrate
    bounds ({!Static_priority}, {!Edf}, {!Gps}), making this engine a
    general-purpose decomposition analyzer. *)

type t

val analyze : ?options:Options.t -> Network.t -> t
(** Runs the sweep.  Unstable servers yield [infinity] local delays,
    which propagate to [infinity] end-to-end bounds (envelopes after an
    unstable server are unconstrained; flows that avoid unstable
    servers keep finite bounds).
    @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument naming the flow and the server when an EDF
    server carries a flow without a deadline. *)

val network : t -> Network.t

val options : t -> Options.t
(** The options the propagation ran with (Algorithm Service Curve
    reads its [sp_blocking]). *)

val flow_delay : t -> int -> float
(** End-to-end delay bound of a flow (by id). *)

val all_flow_delays : t -> (int * float) list
(** [(flow id, bound)] for every flow, in id order. *)

val local_delay : t -> flow:int -> server:int -> float
(** The flow's local delay bound at one of its hops. *)

val envelope_at : t -> flow:int -> server:int -> Pwl.t
(** Input envelope of a flow at a hop, as propagated by this analysis
    (also consumed by Algorithm Service Curve for cross traffic). *)

val server_delay : t -> int -> float
(** Worst local delay bound over the flows at a server ([0.] for an
    idle server). *)

val server_backlog : t -> int -> float
(** Worst-case backlog bound at a server,
    [sup_t (G t - C t)^+] for its propagated aggregate input envelope —
    the buffer size that guarantees zero loss ([0.] for an idle
    server, [infinity] past an unstable one). *)

val server_flow_backlogs : t -> int -> (int * float) list
(** Per-flow backlog bounds at a server, [(flow id, bound)] in id
    order ({!Forward.server_flow_backlogs}: the minimal FIFO split,
    class-level for static priority, share-based for GPS,
    discipline-agnostic for EDF).  Empty for an idle server, all [infinity] past an unstable
    one. *)

val local_backlog : t -> flow:int -> server:int -> float
(** The flow's backlog bound at one of its hops, the per-flow split of
    {!server_flow_backlogs}; computed on the first read of the hop and
    kept.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : t -> int -> float
(** The flow's buffer requirement: its worst per-hop backlog bound
    over its route — admission compares this against the flow's
    [buffer] budget. *)

val server_busy_period : t -> int -> float
(** Busy-period bound at a server ([0.] for an idle server). *)
