(** Local analysis of a GPS / weighted-fair-queueing multiplexor.

    GPS guarantees flow [i] a service rate of at least
    [C * w_i / sum w] whenever it is backlogged (Parekh-Gallager), i.e.
    the rate-latency service curve [beta_{r_i, 0}].  This module models
    fluid GPS; its packetized approximations (PGPS/WFQ) would add a
    latency of one maximum packet time [l_max / C] (the
    "guaranteed-rate" server model of Goyal et al. that the paper
    contrasts with FIFO). *)

val flow_service : rate:float -> weight:float -> total_weight:float -> Pwl.t
(** Rate-latency curve [beta_{C w / W, 0}]. *)

val local_delay :
  rate:float -> weight:float -> total_weight:float -> alpha:Pwl.t -> float
(** Horizontal deviation of [alpha] from the flow's service curve. *)
