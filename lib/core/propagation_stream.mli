(** Streaming frontier propagation — the memory-bounded path for
    massive feedforward topologies.

    The level driver of the {!Forward} pass that {!Decomposed} runs in
    full topological order: the same per-server step, but level by
    level over the antichain decomposition of the routing DAG
    ({!Network.levels}) instead of server by server over a fully
    materialized envelope table:

    - a flow's source curve becomes resident only when its first hop's
      level begins;
    - each antichain's {!Forward.compute} steps are sharded across the
      netcalc.par domain pool (they are read-only), then
      {!Forward.apply} writes them back sequentially in ascending
      server order, so results are bit-identical at any jobs count;
    - the envelope of flow [f] at server [s] is evicted as soon as [s]
      has been analyzed — its only consumer.

    Peak resident envelopes are therefore bounded by the flow
    population crossing one antichain boundary, never by
    [Network.total_hop_count].  Delay results are bit-identical to
    {!Decomposed.flow_delay} on every feedforward network (pinned by
    tests); what this engine gives up is the post-hoc envelope /
    backlog queries of the table-based result — the envelopes no
    longer exist once the pass is over.

    Frontier accounting is published as the
    [propagation.frontier.{live,peak,evicted}] observability metrics
    and returned in {!frontier_stats}. *)

type t

type frontier_stats = {
  peak_live : int;  (** max resident [(flow, server)] envelopes *)
  evicted : int;  (** entries dropped after consumption *)
  total_pairs : int;
      (** [Network.total_hop_count] — what a table-based pass keeps *)
  widest_antichain : int;  (** largest level of the DAG *)
  levels : int;  (** number of antichain levels *)
}

val analyze : ?options:Options.t -> ?jobs:int -> Network.t -> t
(** Full streaming pass.  [jobs] overrides the netcalc.par pool size
    for this analysis only (the determinism tests pin jobs 1 vs 4
    byte-identical).  @raise Network.Cyclic on non-feedforward
    routing. *)

val frontier_stats : t -> frontier_stats

val flow_delay : t -> int -> float
(** End-to-end bound: sum of local bounds along the route — bit-equal
    to [Decomposed.flow_delay] on the same network and options. *)

val all_flow_delays : t -> (int * float) list
(** Sorted by flow id. *)
