(** Packet-level discrete-event simulator for feedforward networks.

    Each server is an output-queued multiplexor of constant rate with
    one of the four disciplines ({!Discipline.t}); links are
    instantaneous.  Sources emit conforming packet streams
    ({!Source}); sinks record end-to-end delays per flow.

    The simulator exists to {e validate} the analytic bounds: for every
    scenario in the test suite and the benchmark harness, the observed
    maximum delay must stay below every method's bound.  It also gives
    a feel for how loose each bound is. *)

type config = {
  packet_size : float;
  horizon : float;          (** stop emitting at this time; the run
                                continues until all packets drain *)
  models : (int * Source.model) list;
      (** per-flow emission model; flows not listed use
          [Greedy { start = 0. }] *)
  record_departures : bool;
      (** keep per-(flow, server) departure timestamps, enabling
          {!departures} (off by default: memory is proportional to
          packets x hops) *)
  buffers : (int * float) list;
      (** per-server buffer capacities (bytes, including the packet in
          service); unlisted servers are unbuffered (infinite).
          Arriving packets that would overflow are dropped — sizing
          every buffer at the analytic backlog bound must yield zero
          drops (tested). *)
}

val default_config : config
(** [packet_size = 0.25], [horizon = 200.], all-greedy, no departure
    recording. *)

type result

val run : ?config:config -> Network.t -> result
(** @raise Invalid_argument when a flow's packet size exceeds its
    burst (the conforming emitter needs [packet_size <= sigma]). *)

val max_delay : result -> int -> float
(** [Stats.max_value] of the flow (0. if it emitted no packets). *)

val server_max_backlog : result -> int -> float
(** Peak backlog (bytes) observed at a server. *)

val server_max_delay : result -> int -> float
(** [Stats.max_value] of the per-hop delays at a server. *)

val packets_delivered : result -> int

val total_drops : result -> int

val departures : result -> flow:int -> server:int -> float list
(** Departure times of a flow's packets from a server, in time order;
    empty unless the run had [record_departures = true].  Used to check
    the analytic {e output envelopes} against observed traffic. *)
