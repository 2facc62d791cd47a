(** Packet scheduling disciplines.

    The paper's analysis targets FIFO servers; the other disciplines it
    surveys in Sec. 1 (static priority, EDF, GPS/fair queueing) are
    implemented as substrates: each provides a local delay bound and,
    where meaningful, an induced service curve, so that the
    decomposition engine and the simulator can run any of them. *)

type t =
  | Fifo
  | Static_priority  (** lower {!Flow} priority number = more urgent *)
  | Edf              (** earliest deadline first, by per-flow local deadline *)
  | Gps              (** generalized processor sharing, by per-flow weight *)

val to_string : t -> string
