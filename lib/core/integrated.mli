(** Algorithm Integrated — the paper's contribution (Fig. 2).

    The feedforward network is partitioned into subnetworks of at most
    two FIFO servers ({!Pairing}); subnetworks are visited in
    topological order; each is analyzed jointly ({!Pair_analysis}),
    producing the delay its flows suffer {e across the whole
    subnetwork} and their output envelopes; end-to-end bounds are the
    sums of per-subnetwork delays along each route.

    Because a pair is analyzed jointly, a burst is only "paid" once per
    pair instead of once per server, and the transit traffic between
    the paired servers is bounded by the physical link rate — the two
    effects that make this method dominate Algorithm Decomposed.

    Only FIFO servers are supported (the paper derives the closed-form
    pair bound for FIFO; extending to static priority is listed as
    future work — see {!Static_priority} for the single-server SP
    machinery). *)

type t

val analyze :
  ?options:Options.t -> ?strategy:Pairing.strategy -> Network.t -> t
(** [strategy] defaults to [Pairing.Greedy].
    @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument when the network has a non-FIFO server. *)

val analyze_with_pairing : ?options:Options.t -> Network.t -> Pairing.t -> t
(** Use an externally supplied (validated) pairing. *)

val network : t -> Network.t
val pairing : t -> Pairing.t

val flow_delay : t -> int -> float
(** End-to-end bound for a flow. *)

val all_flow_delays : t -> (int * float) list

val subnet_delay : t -> flow:int -> subnet:Pairing.subnet -> float
(** The delay contribution a flow picks up in one subnetwork of the
    pairing.  @raise Invalid_argument if the flow does not cross it. *)

val subnet_delay_opt : t -> flow:int -> subnet:Pairing.subnet -> float option
(** [None] when the flow does not cross the subnetwork: for callers
    that enumerate the whole pairing and treat absence as data (the
    report tables). *)

val envelope_at : t -> flow:int -> server:int -> Pwl.t
(** Input envelope of a flow at a hop as propagated by this analysis. *)

val server_backlog : t -> int -> float
(** Aggregate backlog bound at a server, computed from the integrated
    input window (for the second server of a pair: link-capped,
    delay-inflated transit plus fresh traffic) — typically below the
    decomposed bound, since the integrated envelopes are tighter.
    [0.] for an idle server, [infinity] past an unstable one. *)

val server_flow_backlogs : t -> int -> (int * float) list
(** Per-flow backlog bounds at a server ({!Deviation.vdev_per_flow}
    against the integrated window), [(flow id, bound)] in id order. *)

val local_backlog : t -> flow:int -> server:int -> float
(** The flow's backlog bound at one of its hops.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : t -> int -> float
(** The flow's buffer requirement: its worst per-hop backlog bound
    over its route. *)

(** {1 Building blocks of the pass}

    Exposed for {!Integrated_sp}, which runs the same pass once per
    priority class and shares this engine's result type, its
    per-subnet bookkeeping and every accessor above. *)

val create : options:Options.t -> Network.t -> Pairing.t -> t
(** An empty result: each flow's source envelope installed at its first
    hop, no subnet analyzed yet. *)

val poisoned : t -> int -> Flow.t list -> bool
(** Whether one of the flows has an unbounded envelope at the server. *)

val env_at : t -> Flow.t -> int -> Pwl.t
(** A flow's envelope at the input of a server. *)

val aggregate : t -> int -> Flow.t list -> Pwl.t
(** The flows' aggregate envelope at the input of a server, honoring
    the link-cap option ([Pwl.zero] for no flows). *)

val split_pair :
  Network.t -> int -> int -> Flow.t list * Flow.t list * Flow.t list
(** The flows of a pair [(u, v)]: those crossing [u] then [v], those
    crossing [u] only, and those entering at [v]. *)

val single_step :
  t -> int -> int -> Flow.t list -> (Pwl.t * Pwl.t * float) option -> unit
(** [single_step t idx u flows queue] records subnet [idx = Single u]
    for [flows], one queue at [u]: [Some (beta, agg, d)] when it is
    served by [beta] with aggregate input [agg] and delay bound [d]
    (the backlog bounds follow from [beta] and [agg]), [None] when its
    input is unbounded.  Each flow's envelope is shifted by [d] onto
    its next hop, or the rest of its route poisoned. *)

val pair_step :
  t ->
  int ->
  int * int ->
  s12:Flow.t list ->
  s1:Flow.t list ->
  s2:Flow.t list ->
  Pair_analysis.general_input option ->
  Pair_analysis.result
(** The same for subnet [idx = Pair (u, v)] and one class of flows
    ({!split_pair}): {!Pair_analysis.analyze_general} of the input, or
    {!Pair_analysis.unbounded} for [None]; returns the result. *)
