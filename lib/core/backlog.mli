(** Per-flow backlog bounds from an envelope table.

    The single code path behind {!Forward}'s backlog accessors, so that
    every driver of the forward pass ({!Decomposed}, the serve delta
    engine) reproduces the same bounds bit for bit.  The aggregate
    bound at a server is [Fifo.backlog] of its aggregate input: the
    vertical deviation from the constant-rate line, valid for any
    work-conserving discipline. *)

val per_flow :
  options:Options.t ->
  Network.t ->
  Propagation.env_table ->
  server:int ->
  flows:Flow.t list ->
  targets:Flow.t list ->
  local_delay:(flow:int -> float) ->
  (Flow.t * float) list
(** Backlog bounds for the [targets] flows (a subset of [flows], the
    full population at the server, which feeds the aggregates), one
    entry per target in order.  FIFO
    servers use the minimal per-flow split {!Deviation.vdev_per_flow};
    static priority applies the same split within the class against
    its leftover service; GPS uses the flow's deviation from its
    weighted share; EDF falls back to the discipline-agnostic
    [min (alpha_i d_i) B_agg] using the flow's local delay bound
    [local_delay].  Every bound is capped by the aggregate bound. *)
