(** Exact fluid execution of a feedforward FIFO network.

    Where {!Sim} pushes discrete packets, this module computes the
    {e exact trajectory} of one fluid scenario through the network,
    breakpoint-exactly, using the classical single-server identities:

    - departures: Reich's equation,
      [D t = min_{s <= t} (G s + C (t - s))] ({!Minplus.conv_with_rate});
    - FIFO bit ordering: the bit departing at [t] arrived at
      [H t = G^{-1}(D t)], so flow [i]'s cumulative output is
      [A_i (H t)].

    A scenario assigns each flow its actual cumulative arrival
    function at its source — by default the {e greedy realization} of
    its envelope (the arrival curve itself read as a cumulative
    function, i.e. full burst at time 0 then the sustained rate).
    Because the executed traffic conforms exactly to the fluid
    envelopes the analyses assume, any flow delay above an analytic
    bound is a soundness bug {e with no packetization allowance at
    all} — this is the sharpest validation oracle in the library.  It
    is also a tightness probe: maximizing the observed delay over
    scenario phases lower-bounds the true worst case.

    Restrictions: feedforward FIFO networks; every flow needs a
    strictly positive long-run rate (bit ordering inverts the
    aggregate arrival function). *)

type t

val run : ?inputs:(int * Pwl.t) list -> Network.t -> t
(** Execute one scenario.  [inputs] overrides the cumulative source
    arrival function of selected flows (e.g. phase-shifted greedy
    curves built with {!greedy}); all others use [greedy ~phase:0.].
    @raise Network.Cyclic on cyclic routing.
    @raise Invalid_argument on non-FIFO servers or zero-rate flows. *)

val greedy : ?phase:float -> Flow.t -> Pwl.t
(** The greedy realization of a flow's envelope, optionally delayed by
    [phase]: nothing before [phase], then the envelope replayed as a
    cumulative arrival function. *)

val input_at : t -> flow:int -> server:int -> Pwl.t
(** Cumulative arrivals of a flow at one of its hops. *)

val output_of : t -> flow:int -> Pwl.t
(** Cumulative departures of a flow from its last hop. *)

val flow_delay : t -> int -> float
(** Worst per-bit end-to-end delay of the flow in this scenario
    (supremum of departure time minus arrival time over all bits). *)

val server_backlog : t -> int -> float
(** Peak fluid backlog at a server in this scenario. *)

val phase_search : ?tries:int -> ?seed:int -> Network.t -> (int * float) list
(** Per-flow maximum of {!flow_delay} over [tries] (default 8) phase
    assignments: the first all-aligned, the rest with every flow's
    phase drawn uniformly between 0 and 5 (generator seeded with
    [seed], default 11).  A fluid, allowance-free analogue of
    {!Validate.adversarial_max_delays}. *)
