(** Local analysis of a FIFO multiplexor of constant rate [C].

    All bounds assume a stable server ([long-run input rate < C]) and a
    fluid model (packetization effects are second-order at high speeds
    and are validated separately against the packet simulator). *)

val local_delay : rate:float -> agg:Pwl.t -> float
(** Worst-case delay of {e any} bit through the server when the
    aggregate input is constrained by [agg]:
    [sup_t (agg t / rate - t)^+]; [infinity] if unstable. *)

val backlog : rate:float -> agg:Pwl.t -> float
(** Worst-case backlog [sup_t (agg t - rate t)^+]. *)

val busy_period : rate:float -> agg:Pwl.t -> float
(** Bound on the busy-period length (see {!Minplus.busy_period}). *)
