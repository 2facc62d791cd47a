(** Connection admission control — the application the paper motivates
    its analysis with (Sec. 1: "admission control mechanisms that in
    turn use end-to-end delay computation algorithms").

    Candidate connections carry end-to-end deadlines; a connection is
    admitted when, with it added, the chosen analysis method still
    proves {e every} admitted connection's bound below its deadline.
    A tighter analysis admits more connections on the same plant —
    the utilization benefit of Algorithm Integrated.

    {!decide_one} is the single-candidate kernel shared by the batch
    {!run} loop and the long-lived [netcalc serve] service; {!run} is
    exactly a fold of {!decide_one} over the candidate list (tested). *)

type reject_reason =
  | No_deadline  (** candidates without a deadline are rejected outright *)
  | Cyclic_route  (** adding the candidate makes the routing graph cyclic *)
  | Deadline_violated of { flow : int; bound : float; deadline : float }
      (** admitting would break [flow]'s guarantee: its bound under the
          chosen method exceeds its deadline (the candidate itself when
          [flow] is the candidate's id; [bound] is [infinity] past an
          unstable server).  When several flows would miss their
          deadlines, the lowest id is reported. *)
  | Buffer_violated of {
      flow : int;
      server : int;
      backlog : float;
      buffer : float;
    }
      (** admitting would overflow [flow]'s buffer budget: its backlog
          bound at [server] exceeds its per-hop [buffer].  Checked only
          for flows that carry a budget, after every deadline check
          passes; the lowest flow id is reported, and for that flow the
          first over-budget hop along its route. *)

type verdict =
  | Accepted of { bounds : (int * float) list; analysis : Engine.analysis }
      (** per-flow bounds of the whole population with the candidate
          admitted, in id order (what the analysis proved), and the
          analysis that proved them, for further queries (e.g. the
          candidate's backlog) without a second pass *)
  | Rejected of reject_reason

type outcome = {
  admitted : Flow.t list;      (** in the order they were accepted *)
  rejected : Flow.t list;      (** in the order they were refused *)
  rejections : (Flow.t * reject_reason) list;
      (** [rejected], each with the reason the analysis refused it *)
  admitted_rate : float;       (** sum of admitted long-run rates *)
  analysis : Engine.analysis option;
      (** the analysis that accepted the last admitted candidate: it
          covers [base @ admitted], in that order, so it answers every
          admitted flow's bound and backlog without a further pass;
          [None] when no candidate was admitted *)
}

val decide_one :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  servers:Server.t list ->
  flows:Flow.t list ->
  candidate:Flow.t ->
  method_:Engine.method_ ->
  unit ->
  verdict
(** Test one candidate against the current population [flows] (the
    candidate is appended after them, matching the batch loop's
    network construction).  Admission requires both feasibility checks:
    every deadline holds, and every flow with a [buffer] budget keeps
    its per-hop backlog bound within it (deadline ∧ buffer).  Both
    checks read one analysis of the grown network.
    @raise Invalid_argument on duplicate flow
    ids or a route through an unknown server. *)

val run :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  servers:Server.t list ->
  base:Flow.t list ->
  candidates:Flow.t list ->
  method_:Engine.method_ ->
  unit ->
  outcome
(** Sequentially test each candidate (first-come-first-served, no
    backtracking, as an online CAC would).  [base] flows are part of
    the network but have no deadline requirement unless they carry one.
    Candidates without a deadline are rejected outright.
    @raise Invalid_argument on duplicate flow ids. *)

val violation :
  bound:(unit -> float) ->
  backlog:(unit -> int -> float) ->
  Flow.t ->
  reject_reason option
(** The single feasibility rule, shared with the serve delta engine:
    the flow's deadline check first ([bound ()] is its end-to-end
    bound), then — only for a flow carrying a [buffer] budget — its
    per-hop backlog bounds [backlog () server] in route order, the
    first over-budget hop reported.  [bound] is forced only for a flow
    with a deadline and [backlog] only for one with a budget, so flows
    without them cost nothing. *)

val bounds_for :
  ?options:Options.t ->
  ?strategy:Pairing.strategy ->
  servers:Server.t list ->
  Flow.t list ->
  Engine.method_ ->
  (int * float) list
(** Per-flow end-to-end bounds of a flow population under one method,
    in id order — the analysis primitive behind {!decide_one}, exposed
    for services that must re-derive the full bound table (e.g. the
    serve full-re-analysis fallback after a teardown).
    @raise Network.Cyclic on non-feedforward routing. *)

val reason_to_string : reject_reason -> string
(** Human-readable rendering for CLI tables. *)
