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

type analysis
(** One method's analysis of one network: a single pass that answers
    every delay and per-hop backlog query.  Service Curve and
    FIFO-theta run on a decomposed propagation and borrow its backlog
    bounds, which are sound for them too. *)

val analyze :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  Network.t ->
  method_ ->
  analysis
(** Run one method on a network.  [strategy] (default
    [Pairing.Greedy]) only affects [Integrated].
    @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument where the method does not apply (see
    {!Integrated.analyze}). *)

val flow_delay : analysis -> int -> float
(** Delay bound of one flow. *)

val all_flow_delays : analysis -> (int * float) list
(** [(flow id, bound)] for every flow, in id order. *)

val local_backlog : analysis -> flow:int -> server:int -> float
(** The flow's backlog bound at one of its hops.
    @raise Invalid_argument when the flow does not cross the server. *)

val flow_backlog : analysis -> int -> float
(** Buffer requirement of one flow: its worst per-hop backlog bound
    over its route. *)

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
(** All methods on one flow, from one decomposed pass (shared by
    Decomposed, Service Curve and FIFO-theta) and one integrated pass.
    [with_theta = false] (default [true]) skips the more expensive
    extension and reports [nan] for it. *)

val relative_improvement : float -> float -> float
(** [relative_improvement dx dy = (dx - dy) / dx] — the paper's
    [R_(X,Y)] metric (Sec. 4.1): the fraction by which method Y
    improves on method X.  [nan] when either is infinite or [dx = 0]. *)
