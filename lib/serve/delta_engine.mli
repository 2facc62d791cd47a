(** Delta re-analysis engine for the admission-control service.

    Holds one network (fixed servers, evolving flow population) together
    with the state of a {!Forward} pass — the one {!Decomposed} runs in
    full topological order: per-hop input envelopes, per-hop local
    delay bounds, origin-tagged instability poison marks — and is that
    pass's {e cone} driver: when a flow is admitted or torn down, only
    the {e downstream cone} of its route (the forward closure of the
    route's servers in the routing DAG) is re-run; every envelope and
    bound outside the cone is reused unchanged.

    Correctness invariant, pinned by the determinism tests: after any
    sequence of operations, {!all_flow_delays} is {e byte-identical}
    (IEEE bit patterns) to a from-scratch [Decomposed.analyze] of the
    same servers and the same flow list in the same order.  This holds
    because envelopes at a server only depend on upstream state, the
    cone is closed under DAG successors, and both engines run the same
    {!Forward} step over the same inputs.  Feasibility is re-checked
    with {!Admission.violation}, the rule the batch path uses.

    A rejected admit rolls back by tearing the candidate out over the
    same cone, restoring the previous state bit-for-bit.

    An admit or teardown costs O(cone + route) analysis and bookkeeping
    — the network is updated by {!Network.add_flow} and
    {!Network.remove_flow}, not rebuilt — plus an O(flows) pointer copy
    of the flow list.

    Cone sizes are published through [netcalc.obs] as the
    [serve.delta.cone_nodes] / [serve.delta.reused_nodes] counters. *)

type t

val create :
  ?options:Options.t -> servers:Server.t list -> flows:Flow.t list -> unit -> t
(** Build the network and run the initial full analysis (the cone is
    every server).  @raise Network.Cyclic on non-feedforward routing,
    [Invalid_argument] on duplicate ids / unknown route servers. *)

type op_stats = {
  cone_nodes : int;    (** servers re-analyzed by this operation *)
  reused_nodes : int;  (** servers whose state was reused untouched *)
}

type admit_result =
  | Admitted of { bound : float; stats : op_stats }
      (** the candidate's end-to-end bound, now guaranteed *)
  | Rejected of { reason : Admission.reject_reason; stats : op_stats }

val admit : t -> Flow.t -> admit_result
(** Decide one candidate, mutating the engine on acceptance and rolling
    back bit-exactly on rejection.  Decisions agree with
    [Admission.decide_one ~method_:Decomposed] over the same population
    (tested).  @raise Invalid_argument on a duplicate flow id or a
    route through an unknown server (state unchanged). *)

val teardown : t -> int -> (op_stats, [ `Unknown_flow ]) result
(** Remove a flow by id and re-analyze its downstream cone. *)

val query : t -> int -> (Flow.t * float) option
(** A present flow and its current end-to-end bound. *)

val all_flow_delays : t -> (int * float) list
(** [(flow id, bound)] for every flow, in id order — same shape as
    [Decomposed.all_flow_delays]. *)

val server_backlog : t -> int -> float
(** Aggregate backlog bound at a server — bit-identical to
    [Decomposed.server_backlog] of a from-scratch analysis (the same
    {!Forward} accessor over the same envelope table). *)

val server_flow_backlogs : t -> int -> (int * float) list
(** Per-flow backlog bounds at a server, [(flow id, bound)] in id order
    — bit-identical to [Decomposed.server_flow_backlogs]. *)

val flow_backlog : t -> int -> float
(** The flow's buffer requirement: its worst per-hop backlog bound over
    its route.  @raise Invalid_argument for an absent flow. *)

val network : t -> Network.t
(** Current network; flow list order is base order + admission order
    (what a from-scratch comparison must replicate). *)

type stats = {
  servers : int;
  flows : int;
  admitted_rate : float;  (** sum of long-run rates of present flows *)
  admits : int;           (** accepted admits since [create] *)
  rejects : int;
  teardowns : int;
  cone_nodes : int;       (** cumulative over all delta operations *)
  reused_nodes : int;
}

val stats : t -> stats
