(** Integrated delay analysis of a two-multiplexor subsystem
    (paper Sec. 2, Fig. 1; Theorem 1 as re-derived in DESIGN.md §3.3).

    Server 1 feeds server 2.  Flow sets, with the envelopes their
    traffic satisfies {e at the subsystem entry}:
    - [s12]: traverse server 1 then server 2;
    - [s1]:  traverse server 1 only;
    - [s2]:  enter at server 2 only.

    The computed quantities:
    - [d_pair]: end-to-end bound through both servers for [s12]
      traffic.  The integration step bounds the transit traffic
      entering server 2 by the physical link rate of server 1 and by
      the joint source constraint of the transit flows — which is what
      the decomposition-based method loses (its per-flow inflated
      envelopes add bursts the shared link physically cannot deliver
      simultaneously);
    - [d1]: local bound at server 1 (for [s1] traffic);
    - [d2]: local bound at server 2 (for [s2] traffic), also
      integrated: the transit aggregate is rate-capped and
      delay-inflated as a whole.

    All bounds are [infinity] when the corresponding server is
    unstable.

    Two entry points: {!analyze} for plain FIFO servers of constant
    rate (the paper's setting), and {!analyze_general} where each
    server offers the analyzed traffic class a convex {e service
    curve} — the generalization that carries the integrated method to
    static-priority classes (the paper's Sec. 5 future work), with the
    class's leftover curve [(C t - higher t)^+] as [beta]. *)

type input = {
  c1 : float;
  c2 : float;
  s12 : Pwl.t list;
  s1 : Pwl.t list;
  s2 : Pwl.t list;
}

type general_input = {
  link1 : float;  (** physical rate of server 1's output link — caps
                      {e all} transit regardless of class *)
  beta1 : Pwl.t;  (** convex service curve offered by server 1 to the
                      analyzed class ([lambda_C] for FIFO) *)
  beta2 : Pwl.t;  (** same for server 2 *)
  g12 : Pwl.t;    (** aggregate entry envelope of the s12 flows *)
  g1 : Pwl.t;     (** same for s1 flows *)
  g2 : Pwl.t;     (** same for s2 flows *)
}

type result = {
  d_pair : float;  (** end-to-end bound for [s12] flows *)
  d1 : float;      (** server-1 bound for [s1] flows *)
  d2 : float;      (** server-2 bound for [s2] flows *)
  busy1 : float;   (** server-1 busy-period bound [B1] *)
  busy2 : float;   (** server-2 busy-period bound [B2] *)
  window1 : Pwl.t; (** the class aggregate at server 1, [g12 + g1] *)
  window2 : Pwl.t; (** the class window at server 2: the transit
                       [g12], capped by [link1] and inflated by [d1]
                       as a whole, plus [g2] *)
}

val analyze : input -> result
(** FIFO servers of constant rates [c1], [c2]. *)

val analyze_general : general_input -> result
(** Service-curve servers.  Requires [beta1], [beta2] convex
    nondecreasing with positive final slope (checked); the FIFO case
    [beta_i = lambda_(c_i)] makes this coincide with {!analyze}. *)

val single_general : beta:Pwl.t -> agg:Pwl.t -> float
(** Delay bound of a singleton service-curve server for an aggregate:
    [hdev agg beta]. *)
