(** Connections (flows) with source constraints and routes.

    A flow enters the network with a token-bucket-style source
    constraint (paper Eq. (4)) and follows a fixed route — the ordered
    list of server ids it traverses.  Optional QoS attributes are used
    by the non-FIFO disciplines and by admission control. *)

type t = private {
  id : int;
  name : string;
  arrival : Arrival.t;  (** source traffic constraint *)
  route : int list;     (** server ids in traversal order, non-empty *)
  deadline : float option;  (** end-to-end deadline (admission control) *)
  priority : int;       (** static-priority class; lower = more urgent *)
  weight : float;       (** GPS weight *)
  buffer : float option;
      (** per-hop buffer budget: admission requires the flow's backlog
          bound at every server on its route to stay within this *)
}

val make :
  id:int ->
  ?name:string ->
  arrival:Arrival.t ->
  route:int list ->
  ?deadline:float ->
  ?priority:int ->
  ?weight:float ->
  ?buffer:float ->
  unit ->
  t
(** [name] defaults to ["flow<id>"], [priority] to [0], [weight] to
    [1.].  @raise Invalid_argument on an empty route, a route visiting a
    server twice, or a weight, deadline or buffer budget that is not
    [> 0.] (NaN included; [infinity] is accepted). *)

val source_curve : t -> Pwl.t
(** Envelope of the flow at its entry point. *)

val rate : t -> float
val burst : t -> float

val next_hop : t -> int -> int option
(** [next_hop f s] is the server after [s] on the route ([None] when
    [s] is the last hop or not on the route). *)

val prev_hop : t -> int -> int option
val first_hop : t -> int

val hop_pairs : t -> (int * int) list
(** Consecutive pairs of the route, in order. *)
