(** Local analysis of a static-priority multiplexor of rate [C].

    Priority classes are served preemptively in priority order (lower
    number = more urgent); within a class the service is FIFO.  A
    non-preemptive server is modeled through the [blocking] term: the
    size of the largest lower-priority packet that can be in service
    when a higher-priority packet arrives (0 in the fluid model).  It
    is a required argument, so no analysis can drop its [sp_blocking]
    option by omission.  This is the Cruz / Li-Bettati-Zhao (RTSS'97)
    bound the paper's conclusion refers to when discussing the SP
    extension. *)

val class_service : rate:float -> higher:Pwl.t -> blocking:float -> Pwl.t
(** Service curve offered to a priority class given the aggregate
    envelope [higher] of all strictly more urgent classes:
    [(C t - higher t - blocking)^+]. *)

val local_delay :
  rate:float -> higher:Pwl.t -> own:Pwl.t -> blocking:float -> float
(** Worst-case delay of the class aggregate [own]:
    horizontal deviation from {!class_service}.  [infinity] when the
    class is unstable. *)
