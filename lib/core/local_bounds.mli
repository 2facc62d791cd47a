(** Per-server local delay bounds: the body of {!Forward.compute}.

    Given the current input envelopes of the flows at a server (from a
    {!Propagation.env_table}), compute each flow's local worst-case
    delay under the server's discipline:
    - FIFO: the aggregate bound [sup (G t / C - t)^+], with the
      aggregate honoring the link-cap option;
    - static priority: per-class leftover-curve bound (with the
      non-preemption blocking option);
    - EDF: the flow's local deadline (end-to-end deadline split evenly
      across its hops) if the demand-bound test passes, else infinity;
    - GPS: the horizontal deviation from the flow's weighted share. *)

val at_server :
  options:Options.t ->
  Network.t ->
  Propagation.env_table ->
  server:int ->
  (Flow.t * float) list
(** One entry per flow present at the server, in the order of
    {!Network.flows_at}.  @raise Not_found when an envelope is missing
    from the table.  @raise Invalid_argument for a deadline-less flow
    at an EDF server. *)
