(** Fixed-point analysis for networks with routing cycles.

    The paper restricts Algorithm Integrated to cycle-free
    configurations because, without traffic regulation, circular flow
    dependencies feed local delays back into themselves (Sec. 5, citing
    the authors' stability work [22, 23]).  This module implements the
    classical answer — Cruz's time-stopping / fixed-point method — as a
    companion engine:

    guess every flow's envelope at every hop (seeded with the source
    envelope), compute all local delays from the guess, re-derive the
    envelopes (each hop inflates by the upstream local delay), and
    iterate.  The operator is monotone in the envelopes, so from the
    optimistic seed the iterates increase; if they converge the limit
    is a valid set of envelopes and the summed local delays are sound
    end-to-end bounds, and if the bursts blow up the network is
    reported (possibly) unstable — which genuinely happens in rings
    above a load threshold even when every server is individually
    underloaded.

    Each round is {!Forward}'s per-server step run for every server
    against the frozen previous round (a Jacobi sweep, on the
    [netcalc.par] pool), applied into a fresh seeded pass.

    On a feedforward network the exact fixed point is the {!Decomposed}
    result, reached after (longest path) rounds.  The iteration stops
    earlier, as soon as no envelope moves by more than [1e-9]
    (sup norm), so on deep networks the deepest levels may not have
    settled: the stopped iterate approaches the fixed point from below,
    and its bounds can sit under Decomposed's by a relative [1e-11] or
    so. *)

type t

val analyze : ?options:Options.t -> ?max_iter:int -> Network.t -> t
(** Jacobi iteration until no envelope moves by more than [1e-9]
    (sup norm), a local bound is infinite, or [max_iter] (default 200)
    rounds elapse.  No feedforward requirement. *)

val converged : t -> bool
val iterations : t -> int

val flow_delay : t -> int -> float
(** End-to-end bound; [infinity] when the iteration did not converge
    (or a server is outright unstable). *)

val all_flow_delays : t -> (int * float) list
