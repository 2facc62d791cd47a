(** Local allocation of end-to-end deadlines in EDF networks — the
    companion problem of Nagarajan/Kurose/Towsley (the paper's
    reference [28]): an EDF scheduler needs a {e local} deadline per
    hop, but applications specify {e end-to-end} deadlines; how should
    the budget be split?

    The decomposition engine's naive answer (equal split) wastes
    budget at lightly loaded hops.  This module computes a
    proportional-scaling allocation instead: at each server, the
    minimal uniform scaling of the flows' per-hop budget shares that
    passes the EDF demand-bound test is found by bisection
    (feasibility is monotone in the scaling), and envelope propagation
    is iterated to a fixed point because output envelopes depend on
    the assigned local deadlines.  A flow is schedulable when the
    minimal local deadlines along its route sum to at most its
    end-to-end deadline.

    Requires every server to be EDF and every flow to carry a
    deadline. *)

type t

val allocate : Network.t -> t
(** Iterate allocation/propagation (50 rounds, bisection tolerance
    1e-6).
    @raise Network.Cyclic on non-feedforward routing.
    @raise Invalid_argument on a non-EDF server or a deadline-less
    flow. *)

val local_deadline : t -> flow:int -> server:int -> float
(** The assigned local deadline (= local delay bound when feasible). *)

val flow_bound : t -> int -> float
(** Sum of the assigned local deadlines along the route — the end-to-end
    bound this allocation certifies. *)

val flow_feasible : t -> int -> bool
(** Whether that bound is within the flow's end-to-end deadline. *)

val all_feasible : t -> bool

val equal_split_feasible : Network.t -> int -> bool
(** Baseline for comparison: is the flow schedulable under the naive
    equal split (the {!Decomposed} policy)?  The allocation above is
    never worse (tested). *)
