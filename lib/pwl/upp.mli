(** Ultimately pseudo-periodic (UPP) curves: a finite {!Pwl.t} prefix
    plus a periodic law [f (t + period) = f t + increment] for
    [t >= rank] (Nancy-style; Zippo & Stea, arXiv 2205.11449).  Curve
    size is independent of the analysis horizon, which is what this
    representation buys on long-horizon/cyclic-style workloads.

    Eventually-affine curves — every token-bucket and rate-latency
    curve in this repro — are the [affine_tail] special case, on which
    every operation delegates to the exact finite [Pwl]/[Minplus]
    kernels over the {e same} hash-consed values: results are
    bit-identical to those kernels there.  That is why the analysis
    engines, which only exchange such curves, call [Minplus] directly
    and this module is a standalone library (DESIGN.md §15).  Genuinely periodic curves
    use windowed kernels (unroll to transient + two periods, operate,
    re-verify the law, minimize); those paths are tolerance-exact
    ({!Float_ops.( =~ )}), with the periodic-law verification refusing
    (raising [Invalid_argument]) rather than returning an unverified
    law. *)

type t

val of_pwl : Pwl.t -> t
(** Wrap a finite curve as the eventually-affine UPP curve equal to it
    everywhere.  Exact; O(1). *)

val to_pwl : t -> Pwl.t
(** Exact lowering back to a finite curve.
    @raise Invalid_argument when the curve is genuinely periodic (its
    finite representation would depend on a horizon; use {!unroll}). *)

val make :
  rank:float -> period:float -> increment:float ->
  (float * float * float) list -> t
(** [make ~rank ~period ~increment segs] builds the curve that follows
    the segments (a {!Pwl.make} triple list, which must not extend to
    [rank + period] or beyond) on [0, rank + period) and the law
    [f (t + period) = f t + increment] from [rank] on.  The result is
    normalized: affine-tail collapse, rank reduction by whole periods,
    period division ({!normalize} is idempotent).
    @raise Invalid_argument on [rank < 0], [period <= 0], non-finite
    parameters, or segments reaching past the trusted window. *)

val staircase : step:float -> interval:float -> t
(** The pure staircase [t -> step * (1 + floor (t / interval))]: jumps
    by [step] at [0, interval, 2 interval, ...].  One segment,
    regardless of how far it is ever evaluated — the canonical
    horizon-independence stress curve. *)

val normalize : t -> t
(** Re-establish minimality (affine-tail collapse, rank reduction,
    period division).  Every constructor and operation already returns
    normalized curves; [normalize] is idempotent. *)

val eval : t -> float -> float
(** Value at [t >= 0] (negative [t] clamps to 0 like {!Pwl.eval}),
    folding [t] into the trusted window by whole periods. *)

val unroll : t -> horizon:float -> Pwl.t
(** Explicit finite prefix, exact on [0, horizon] (eventually-affine
    curves return their base unchanged).  Past the horizon the result
    continues with the slope of its last segment — the unavoidable
    lie of any finite representation, which is exactly what this
    module exists to avoid. *)

val base : t -> Pwl.t
(** The stored finite prefix (trusted on [0, rank + period)). *)

val rank : t -> float
val period : t -> float
val increment : t -> float
val is_affine_tail : t -> bool

val rate : t -> float
(** Long-run growth rate: [final_slope base] for eventually-affine
    curves, [increment / period] otherwise. *)

val segment_count : t -> int
(** Number of stored segments — the representation size that stays
    bounded where an unrolled {!Pwl.t} grows with the horizon. *)

(** {1 Algebra}

    Binary operations on genuinely periodic operands require the two
    periods to be commensurable (common multiple within a small integer
    factor) when both laws matter, and raise [Invalid_argument]
    otherwise — a refusal, never a wrong law. *)

val add : t -> t -> t
val min_pw : t -> t -> t

val conv : t -> t -> t
(** Envelope-convention min-plus convolution
    [min (f t, g t, inf_{0 <= s <= t} f s + g (t - s))] — coincides
    with {!Minplus.conv} on concave operands and with
    {!Minplus.conv_with_rate} when one operand is a rate line through
    the origin.  Eventually-affine operands delegate to
    {!Minplus.conv} (bit-identical, shape rules and all); periodic
    operands use the windowed UPP decomposition (transient/periodic
    sub-convolutions, {!Par.map}-parallel). *)

val conv_with_rate : rate:float -> t -> t
(** Reich's equation against a constant-rate server; the periodic path
    is [conv] with the rate line. @raise Invalid_argument on
    [rate <= 0]. *)

val deconv : t -> t -> t
(** Min-plus deconvolution [sup_{u >= 0} f (t + u) - g u].
    @raise Invalid_argument when infinite ([rate f > rate g]). *)

(** {1 Identity} *)

val compare : t -> t -> int
(** Total order on (law parameters, base content) bit patterns;
    mirrors {!Pwl.compare} — consistent with {!hash}, independent of
    intern uids. *)

val hash : t -> int
(** Content hash over the base's content hash and the law parameters. *)
