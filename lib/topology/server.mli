(** Servers (switch output ports / multiplexors).

    Following the paper's model, every contention point in the network —
    each output port of each switch — is one work-conserving server with
    a constant service rate and a scheduling discipline.  Links are
    instantaneous (propagation delay is an additive constant that does
    not affect the comparison of analysis methods). *)

type t = private {
  id : int;
  name : string;
  rate : float;
  discipline : Discipline.t;
}

val make :
  id:int -> ?name:string -> rate:float -> ?discipline:Discipline.t -> unit -> t
(** [discipline] defaults to [Fifo]; [name] to ["s<id>"].
    @raise Invalid_argument when [rate <= 0.] or [id < 0]. *)
