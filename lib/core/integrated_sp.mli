(** Algorithm Integrated for static-priority networks — the extension
    the paper's conclusion announces ({e "We are currently extending
    the applicability of this approach to the static-priority
    discipline by deriving the appropriate closed form solutions of
    the delay formulas"}).

    The pairwise analysis of {!Pair_analysis} generalizes verbatim
    once each server's constant rate is replaced by the {e leftover
    service curve} of the analyzed priority class,
    [(C t - higher t)^+]: within a class, a static-priority server is
    FIFO, and the class's busy-period geometry is governed by the
    leftover curve instead of the service line.  Priority classes are
    analyzed in urgency order (lower number first) so that the
    higher-priority envelopes entering the second server of a pair are
    available when a class needs them.

    The pass itself is {!Integrated}'s, run once per class: the same
    per-subnet bookkeeping (delay contributions, envelope shift,
    poison marks, backlog bounds) and the same accessors.

    Every server must use [Discipline.Static_priority], or every
    server [Discipline.Fifo]; mixing the two is rejected because a
    flow's class would not be consistent across a pair.  On an all-FIFO
    network all flows form one class.  When every server has unit rate
    (the paper's tandem grid, unit-rate random DAGs) the results are
    then bit-identical to {!Integrated}'s (tested); with heterogeneous
    rates they can differ in the last bits, because a lone FIFO server
    is bounded here by [hdev] through a pseudo-inverse and there by
    [sup (agg t - C t) / C]. *)

type t

val analyze :
  ?options:Options.t -> ?strategy:Pairing.strategy -> Network.t -> t
(** @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument when a server is neither FIFO nor
    static-priority. *)

val network : t -> Network.t
val pairing : t -> Pairing.t

val flow_delay : t -> int -> float
val all_flow_delays : t -> (int * float) list

val envelope_at : t -> flow:int -> server:int -> Pwl.t
(** Input envelope of a flow at a hop as propagated by this analysis. *)

val server_backlog : t -> int -> float
(** Aggregate backlog bound at a server: the sum over its priority
    classes of the class queue's vertical deviation from the class's
    leftover service, computed on the integrated input windows.  [0.]
    for an idle server, [infinity] past an unstable one. *)

val server_flow_backlogs : t -> int -> (int * float) list
(** Per-flow backlog bounds at a server, [(flow id, bound)] in id
    order: the minimal FIFO split within the flow's class (service is
    FIFO inside a priority class). *)

val local_backlog : t -> flow:int -> server:int -> float
(** The flow's backlog bound at one of its hops.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : t -> int -> float
(** The flow's buffer requirement: its worst per-hop backlog bound
    over its route. *)
