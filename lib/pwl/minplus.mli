(** Min-plus (network-calculus) operations on piecewise-linear functions.

    Convolution follows Cruz and Le Boudec:
    [(f (x) g)(t) = inf_{0 <= s <= t} f(s) + g(t - s)].  No analysis
    here deconvolves: a flow's output envelope is its input envelope
    shifted left by the local delay bound ({!Pwl.shift_left}, the
    paper's Step 3.2).

    Convolution is implemented for the two shape classes the analyses
    need, both with well-known exact forms:
    - concave (x) concave (with value 0 at 0-) = pointwise minimum
      (Le Boudec, {e Network Calculus}, Thm 3.1.6);
    - convex (x) convex = concatenation of segments sorted by increasing
      slope (inf-convolution of convex functions).

    Arrival curves are concave and service curves convex throughout this
    library, so these two cases cover every use. *)

val conv : Pwl.t -> Pwl.t -> Pwl.t
(** Min-plus convolution.  Dispatches on {!Pwl.shape}; affine functions
    may pair with either class.  For the concave case the functions are
    interpreted as right-continuous envelopes with implicit value 0 at
    [t = 0-] (the standard arrival-curve convention), so the result is
    the pointwise minimum.
    @raise Invalid_argument when neither shape rule applies (one operand
    [`General], or a convex operand with an interior jump). *)

val conv_list : Pwl.t list -> Pwl.t
(** Left fold of {!conv}.  @raise Invalid_argument on the empty list. *)

val conv_with_rate : rate:float -> Pwl.t -> Pwl.t
(** [(lambda_rate (x) g)(t) = min_{0 <= s <= t} (g s + rate (t - s))] for
    an {e arbitrary} nondecreasing [g] — not just the concave/convex
    classes of {!conv}.  This is Reich's equation: the exact cumulative
    departure function of a work-conserving constant-rate server whose
    cumulative arrivals are [g].  [g] is treated as a cumulative
    function that vanishes before the origin, so a value jump at 0 is
    an instantaneous burst into an initially empty server.  Computed by
    the running-minimum scan
    [min (g t, rate * t + min_{b <= t} (g b - rate b))] over
    breakpoints. *)

(** {1 Result cache}

    [conv] memoizes its results in a cache keyed by the operands' uids
    ({!Pwl.uid}, interned on demand: equal uids mean bit-identical
    segments, so the key is two machine words instead of the segments
    themselves) — because the figure sweeps rebuild the same
    Service-Curve prefix convolutions many times over.  Cached values
    are immutable, so a hit is indistinguishable from recomputation and
    results are byte-identical whether a call hits or misses.  The
    cache is always on, bounded (wholesale reset past a few thousand
    entries), and safe to use from netcalc.par worker domains.  Hits
    and misses are also published as the [pwl.cache.hits] /
    [pwl.cache.misses] observability counters. *)

type cache_stats = { hits : int; misses : int; entries : int }

val cache_clear : unit -> unit
(** Drop every cached entry (keeps the hit/miss counters; those are
    reset with [Metrics.reset]). *)

val cache_stats : unit -> cache_stats
(** Cumulative hits/misses since the last [Metrics.reset] and the
    current number of live entries. *)

val busy_period : agg:Pwl.t -> rate:float -> float
(** [busy_period ~agg ~rate] bounds the length of a busy period of a
    work-conserving server of rate [rate] whose aggregate input is
    constrained by [agg]: the first positive crossing of [agg] below the
    service line, [inf { t > 0 : agg t <= rate t }].  [infinity] when
    the server is unstable ([final_slope agg >= rate] and no crossing
    exists). *)

val stable : agg:Pwl.t -> rate:float -> bool
(** True when the long-run input rate is strictly below [rate] — the
    condition for every delay bound in this library to be finite. *)
