(** One-stop comparison driver: run every analysis method on a network
    and collect the results (the paper's evaluation loop). *)

type method_ =
  | Decomposed
  | Service_curve
  | Integrated
      (** with the Sec. 5 static-priority extension; requires a
          homogeneous FIFO or static-priority network *)
  | Fifo_theta  (** extension, not in the paper *)

val all_methods : method_ list
val method_name : method_ -> string

val flow_delay :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  Network.t ->
  method_ ->
  int ->
  float
(** Delay bound of one flow under one method.  [strategy] (default
    [Pairing.Greedy]) only affects [Integrated]. *)

val flow_backlog :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  Network.t ->
  method_ ->
  int ->
  float
(** Buffer requirement of one flow under one method: its worst per-hop
    backlog bound over its route.  Service Curve and FIFO-theta borrow
    the decomposed engine's bounds, which are sound for them too. *)

type comparison = {
  flow : int;
  decomposed : float;
  service_curve : float;
  integrated : float;
  fifo_theta : float;
  decomposed_backlog : float;  (** buffer requirement, decomposed *)
  integrated_backlog : float;  (** buffer requirement, integrated *)
}

val compare_all :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  ?with_theta:bool ->
  Network.t ->
  int ->
  comparison
(** All methods on one flow.  [with_theta = false] (default [true])
    skips the more expensive extension and reports [nan] for it. *)

val relative_improvement : float -> float -> float
(** [relative_improvement dx dy = (dx - dy) / dx] — the paper's
    [R_(X,Y)] metric (Sec. 4.1): the fraction by which method Y
    improves on method X.  [nan] when either is infinite or [dx = 0]. *)
