(** The evaluation topology of the paper (Fig. 3): a tandem of [n] 3x3
    switches.

    Servers (all FIFO, rate 1):
    - ids [0 .. n-1]: the middle output ports ("mid_out_k"), the chain
      Connection 0 rides end to end;
    - ids [n .. 2n-1]: the upper exit ports used by the 2-hop cross
      sessions [A_k];
    - ids [2n .. 3n-1]: the lower exit ports used by the 3-hop cross
      sessions [B_k].

    Flows ([2n + 1] of them, paper Sec. 4.1):
    - flow 0 ("conn0"): route [0; 1; ...; n-1];
    - [A_k] (flow id [2k+1]): enters switch [k], one middle hop, exits
      via its upper exit port — route [\[k; n+k\]];
    - [B_k] (flow id [2k+2]): enters switch [k], two middle hops (one at
      the tail of the chain), exits via its lower exit port — route
      [\[k; k+1; 2n+k\]] (clamped to [\[n-1; 2n+k\]] for [k = n-1]).

    This reproduces the paper's invariant that every middle output port
    except the first carries exactly four connections (Connection 0,
    [A_j], [B_j], [B_(j-1)]), so with per-source rate [rho = U/4] the
    internal links run at utilization [U].

    Every source is a token bucket with burst [sigma] (default 1) and
    peak rate equal to the link rate (default 1), exactly Eq. (4). *)

type t = {
  network : Network.t;
  conn0 : Flow.t;         (** the longest connection, whose delay the
                              evaluation reports *)
  n : int;
  mid_servers : int list; (** ids [0 .. n-1] in order *)
}

val make :
  n:int ->
  utilization:float ->
  ?sigma:float ->
  ?peak:float ->
  ?discipline:Discipline.t ->
  unit ->
  t
(** [n >= 2]; [utilization] in (0, 1) is the internal-link load [U]
    (per-source rate is [U / 4]).  [sigma] defaults to [1.]; [peak] to
    [1.] (pass [infinity] for classic unclipped token buckets).
    [discipline] (default FIFO) applies to every server; flows carry
    fixed priorities for static-priority experiments: the short [A_k]
    sessions are urgent (0), Connection 0 is middle (1), the [B_k]
    sessions are background (2).
    @raise Invalid_argument on out-of-range parameters. *)
