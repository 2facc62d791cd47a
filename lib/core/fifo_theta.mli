(** FIFO service-curve-family method — the extension beyond the paper
    (DESIGN.md §3.5).

    For a FIFO server of rate [C] with cross-traffic envelope
    [alpha_c], every [theta >= 0] yields a valid per-flow service curve
    [beta_theta t = (C t - alpha_c (t - theta))^+ 1{t > theta}]
    (Cruz 1995; Le Boudec-Thiran Prop. 6.2.1).  [theta = 0] is the
    leftover curve used by Algorithm Service Curve; for token-bucket
    cross traffic the choice [theta = sigma_c / C] gives the strictly
    better rate-latency curve [beta_{C - rho_c, sigma_c / C}].

    This method composes one family member per FIFO hop and tunes the
    [theta] vector by per-hop candidate enumeration plus two passes of
    coordinate descent on the end-to-end horizontal deviation.  The
    family holds only at FIFO servers: every other hop (static
    priority, EDF, GPS) keeps {!Service_curve_method.hop_service_curve}
    and has no [theta].  Cross-traffic envelopes come from a
    {!Decomposed} propagation, as in {!Service_curve_method} — so the
    comparison against that method isolates exactly the value of the
    [theta] degree of freedom. *)

type t

val analyze : Decomposed.t -> t
(** The method on top of a decomposed propagation of the network,
    which supplies the cross-traffic envelopes. *)

val flow_delay : t -> int -> float
(** Delay bound for a flow after tuning thetas.  Never worse than the
    Algorithm Service Curve bound, because theta = 0 at every FIFO hop
    is always among the candidates.  [infinity] when a hop is
    saturated, or when no theta vector's bound can be computed. *)

val all_flow_delays : t -> (int * float) list

val thetas : t -> flow:int -> float list
(** The tuned per-hop theta vector (for inspection/tests); [0.] at a
    non-FIFO hop. *)
