(** Local analysis of an earliest-deadline-first multiplexor of rate [C].

    For preemptive EDF over fluid traffic the classic demand-bound
    condition is exact: local deadlines [d_i] are met for flows with
    arrival curves [alpha_i] iff
    [sum_i alpha_i (t - d_i) <= C t] for all [t >= 0]
    (Liebeherr/Wrege/Ferrari; Firoiu et al.). *)

val feasible : rate:float -> (Pwl.t * float) list -> bool
(** Whether the deadline assignment is schedulable on a rate-[C] EDF
    server. *)

val local_delay : rate:float -> (Pwl.t * float) list -> deadline:float -> float
(** Delay bound for a flow with local deadline [deadline]: the deadline
    itself when {!feasible}, [infinity] otherwise. *)
