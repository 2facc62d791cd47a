(** Algorithm Integrated — the paper's contribution (Fig. 2) — and its
    static-priority extension.

    The feedforward network is partitioned into subnetworks of at most
    two servers ({!Pairing}); subnetworks are visited in topological
    order; each is analyzed jointly ({!Pair_analysis}), producing the
    delay its flows suffer {e across the whole subnetwork} and their
    output envelopes; end-to-end bounds are the sums of per-subnetwork
    delays along each route.

    Because a pair is analyzed jointly, a burst is only "paid" once per
    pair instead of once per server, and the transit traffic between
    the paired servers is bounded by the physical link rate — the two
    effects that make this method dominate Algorithm Decomposed.

    The paper derives the pair bound for FIFO servers and announces the
    static-priority extension in its conclusion ({e "We are currently
    extending the applicability of this approach to the static-priority
    discipline by deriving the appropriate closed form solutions of the
    delay formulas"}).  The pass runs once per priority class, in
    urgency order (lower number first), so that the higher-priority
    envelopes entering the second server of a pair are available when
    a class needs them.  The classes differ only in the service they
    see:
    - at a FIFO server every flow is in one class, served by the rate
      line [C t]; a lone server is bounded by {!Fifo.local_delay};
    - at a static-priority server each class is served by its
      {e leftover service curve} [(C t - higher t - blocking)^+]
      ({!Static_priority.class_service}, [blocking] the [sp_blocking]
      of {!Options.t}): within a class the server is FIFO, so the
      pairwise analysis of {!Pair_analysis} generalizes verbatim with
      the leftover curve in place of the rate line.  A lone server is
      bounded by {!Pair_analysis.single_general}.

    Every server must be FIFO, or every server static priority: mixing
    the two is rejected because a flow's class would not be consistent
    across a pair.

    Each queue's aggregate backlog bound ({!server_backlog}) is computed
    by the pass.  A flow's per-hop backlog, the minimal FIFO split of
    its queue's bound ({!Deviation.vdev_per_flow}), is not: the pass
    keeps each queue's window and service, and {!local_backlog} (and
    so {!flow_backlog}) runs the split on the first read of a hop and
    keeps the value in [t].  Later reads, from any domain, return the
    kept value.  Nothing changes the pass after {!analyze}, so a kept
    value never goes stale, and it has the bits a split during the pass
    would have had. *)

type t

val analyze :
  ?options:Options.t -> ?strategy:Pairing.strategy -> Network.t -> t
(** Builds the pairing and runs the pass, on every call.  [strategy]
    defaults to [Pairing.Greedy].
    @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument when a server is neither FIFO nor static
    priority, or the network mixes the two. *)

val analyze_with_pairing : ?options:Options.t -> Network.t -> Pairing.t -> t
(** Use an externally supplied (validated) pairing. *)

val network : t -> Network.t
val pairing : t -> Pairing.t

val flow_delay : t -> int -> float
(** End-to-end bound for a flow: the sum of its {!subnet_delays}.
    @raise Invalid_argument for an unknown flow id. *)

val all_flow_delays : t -> (int * float) list

val subnet_delays : t -> int -> (Pairing.subnet * float) list
(** The subnetworks a flow crosses, in route order (which is pairing
    order), each with the delay the flow picks up across it: one lookup
    per hop, keyed by the server where the flow enters the subnetwork.
    @raise Invalid_argument for an unknown flow id. *)

val envelope_at : t -> flow:int -> server:int -> Pwl.t
(** Input envelope of a flow at a hop as propagated by this analysis. *)

val server_backlog : t -> int -> float
(** Aggregate backlog bound at a server, computed from the integrated
    input window (for the second server of a pair: link-capped,
    delay-inflated transit plus fresh traffic) — typically below the
    decomposed bound, since the integrated envelopes are tighter.  At a
    static-priority server it is the sum over the priority classes of
    each class queue's vertical deviation from the class's leftover
    service.  [0.] for an idle server, [infinity] past an unstable
    one. *)

val local_backlog : t -> flow:int -> server:int -> float
(** The flow's backlog bound at one of its hops: computed on the first
    read of the hop and kept; [infinity] past an unstable server.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : t -> int -> float
(** The flow's buffer requirement: its worst per-hop backlog bound
    over its route. *)
