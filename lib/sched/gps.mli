(** Local analysis of a GPS / weighted-fair-queueing multiplexor.

    GPS guarantees flow [i] a service rate of at least
    [C * w_i / sum w] whenever it is backlogged (Parekh-Gallager), i.e.
    the rate-latency service curve [beta_{r_i, 0}].  Its packetized
    approximations (PGPS/WFQ) add a latency of one maximum packet time
    [l_max / C] (the "guaranteed-rate" server model of Goyal et al. that
    the paper contrasts with FIFO). *)

val flow_service :
  rate:float ->
  weight:float ->
  total_weight:float ->
  ?packet_latency:float ->
  unit ->
  Pwl.t
(** Rate-latency curve [beta_{C w / W, packet_latency}];
    [packet_latency] defaults to 0 (fluid GPS). *)

val local_delay :
  rate:float ->
  weight:float ->
  total_weight:float ->
  alpha:Pwl.t ->
  ?packet_latency:float ->
  unit ->
  float
(** Horizontal deviation of [alpha] from the flow's service curve. *)
