(** The forward pass shared by every decomposition-style engine.

    Algorithm Decomposed is one per-server step repeated in topological
    order: bound each flow's local delay from the server's aggregate
    input, shift the flow's envelope by that bound and install it at
    the next hop.  The local delay follows the server's discipline:
    - FIFO: the aggregate bound [sup (G t / C - t)^+], the aggregate
      honoring the link-cap option;
    - static priority: the class's leftover-curve bound, with the
      non-preemption blocking option;
    - EDF: the flow's local deadline (its end-to-end deadline split
      evenly across its hops) if the demand-bound test passes, else
      infinity;
    - GPS: the horizontal deviation from the flow's weighted share.
    Past an unstable server a flow's envelope is unconstrained, so its
    remaining hops are {e poisoned}: every flow meeting a poisoned hop
    gets an infinite local bound there and poisons its own remaining
    hops in turn.

    This module holds the state of that pass — the envelope table, the
    per-[(flow, server)] local bounds and the poison marks, each tagged
    with the server whose step wrote it — the step itself with all of
    its per-server arithmetic, and one accessor surface over the
    finished state.  The delay and the backlog bounds at a server read
    the same aggregate and, at a static-priority server, the same
    per-class split.  Four drivers run it:
    {!Decomposed} (every server in topological order),
    {!Propagation_stream} (level by level, steps computed on the
    [netcalc.par] pool, then evicted), the serve delta engine (the
    downstream cone of a changed route) and {!Fixed_point}'s Jacobi
    driver (every server against the frozen previous round, applied
    into a fresh pass, until the envelopes stop moving).  Because
    every driver runs the same step over the same inputs, their
    results agree bit for bit.
    {!Integrated} keeps its envelope table and poison marks here too,
    with its own per-subnet step. *)

type t

val create :
  ?size_hint:int ->
  options:Options.t ->
  Network.t ->
  Propagation.env_table ->
  t
(** A pass over the network, reading and writing the given envelope
    table (which holds at least each flow's source curve before that
    flow's first hop is stepped).  [size_hint] (default 64) presizes
    the local-bound table. *)

val network : t -> Network.t
val options : t -> Options.t
val envs : t -> Propagation.env_table

val set_network : t -> Network.t -> unit
(** Replace the network (an online engine after admitting or tearing
    down a flow); the caller then re-runs the affected cone. *)

val aggregate : t -> int -> Flow.t list -> Pwl.t
(** [aggregate t server flows] is the aggregate envelope of [flows] at
    the input of [server]: the sum of their envelopes there, except
    that with the [link_cap] option the flows arriving from a common
    upstream server are first summed and capped by that upstream
    link's rate.  [Pwl.zero] for no flows.
    @raise Not_found when an envelope is missing from the table. *)

(** {1 The per-server step} *)

type step
(** One server's analysis, computed but not yet written back. *)

val compute : t -> int -> step
(** Analyze one server from the current state without modifying it —
    safe to run concurrently for servers that do not depend on each
    other, as long as no {!apply} runs meanwhile.
    @raise Invalid_argument naming the flow and the server when an EDF
    server carries a flow without a deadline. *)

val apply : t -> step -> unit
(** Write a computed step back: local bounds, next-hop envelopes and
    poison marks. *)

val evict : t -> step -> int
(** Drop the input envelopes the step consumed (its server's entries);
    returns how many were resident. *)

val run : t -> int list -> unit
(** [apply (compute s)] for every server [s] of the list in order.
    Poison marks originating at a listed server are dropped first, to
    be re-derived: the list may be a topological order of every server
    (a fresh pass), or of any successor-closed subset of them (the cone
    of a change to an already analyzed state). *)

val poison_rest : t -> Flow.t -> from:int -> unit
(** Mark the hops of the flow after [from] as unbounded, tagged with
    origin [from]. *)

val is_poisoned : t -> flow:int -> server:int -> bool

val forget_flow : t -> Flow.t -> unit
(** Drop every per-hop entry of a flow: envelopes, bounds and marks. *)

(** {1 Results} *)

val local_delay : t -> flow:int -> server:int -> float
(** [infinity] past an unstable server.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_delay : t -> int -> float
(** End-to-end bound: the sum of the local bounds along the route. *)

val all_flow_delays : t -> (int * float) list
(** [(flow id, bound)] for every flow, in id order. *)

val envelope_at : t -> flow:int -> server:int -> Pwl.t
(** @raise Invalid_argument past an unstable server. *)

val server_delay : t -> int -> float
(** Worst local bound at the server ([0.] when idle). *)

val server_backlog : t -> int -> float
(** [sup_t (G t - C t)^+] of the aggregate input ([0.] when idle,
    [infinity] past an unstable server). *)

val server_busy_period : t -> int -> float

val server_flow_backlogs : t -> int -> (int * float) list
(** Per-flow backlog bounds at the server, in id order.  FIFO takes the
    minimal per-flow split {!Deviation.vdev_per_flow} of the aggregate;
    static priority the same split within the class against its
    leftover service; GPS the flow's vertical deviation from its
    weighted share; EDF the discipline-agnostic
    [min (alpha_i d_i) B_agg], [d_i] the flow's local delay bound.
    The last three are capped by the aggregate bound [B_agg] (that of
    {!server_backlog}).  Empty for an idle server, all [infinity] past
    an unstable one. *)

val local_backlog : t -> flow:int -> server:int -> float
(** @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : t -> int -> float
(** Worst per-hop backlog bound over the flow's route. *)
