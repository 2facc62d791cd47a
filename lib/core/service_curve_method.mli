(** Algorithm Service Curve — the induced-service-curve baseline
    (paper Sec. 1.2 and 4.2).

    For each hop of the tagged flow an induced per-flow service curve
    is derived from the server's discipline and its cross traffic; the
    network service curve is their min-plus convolution (paper Eq. (2))
    and the delay bound its horizontal deviation from the source
    envelope (Eq. (1)).

    For FIFO there is no exact per-flow service curve; following the
    paper we use the best curve available without per-flow information
    — the leftover curve [(C t - cross t)^+], valid for any
    work-conserving multiplexing.  The paper stresses that its D_SC
    numbers are therefore {e optimistic} (a lower bound on what any
    correct FIFO service-curve method would report); the same caveat
    applies here.

    Cross-traffic envelopes at interior servers are obtained from a
    {!Decomposed} propagation of the whole network. *)

type t

val analyze : Decomposed.t -> t
(** The method on top of a decomposed propagation of the network,
    which supplies the cross-traffic envelopes. *)

val network_service_curve : t -> flow:int -> Pwl.t
(** The end-to-end service curve [beta_1 (x) ... (x) beta_m] of a flow.
    @raise Invalid_argument when some hop offers no service (unstable
    cross traffic saturates it). *)

val flow_delay : t -> int -> float
(** Delay bound [hdev(alpha_src, network curve)] for a flow;
    [infinity] when a hop is saturated. *)

val all_flow_delays : t -> (int * float) list

val hop_service_curve : t -> flow:int -> server:int -> Pwl.t
(** The induced curve at a single hop (exposed for tests and for the
    FIFO-theta extension to compare against). *)
