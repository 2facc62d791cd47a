(** Each flow's local delay and per-hop backlog bound at a server,
    computed flow by flow as the library did before {!Forward} took
    over the per-server arithmetic (the former [Local_bounds.at_server]
    and [Backlog.per_flow]): every flow re-sums the aggregate and, at a
    static-priority server, its class split.  Kept as a test oracle;
    the forward suite compares {!Forward}'s bounds to it bit for bit.

    [env] gives each flow's input envelope at [server]. *)

val local_delay :
  options:Options.t ->
  Network.t ->
  env:(Flow.t -> Pwl.t) ->
  server:int ->
  Flow.t ->
  float

val local_backlog :
  options:Options.t ->
  Network.t ->
  env:(Flow.t -> Pwl.t) ->
  server:int ->
  local_delay:float ->
  Flow.t ->
  float
(** [local_delay] is the flow's local delay bound at [server] (read by
    the EDF split). *)
