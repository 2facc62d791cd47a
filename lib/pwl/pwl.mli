(** Piecewise-linear functions on [0, +oo).

    This is the numeric substrate of the whole library: arrival curves,
    service curves, traffic envelopes and every intermediate quantity in
    the delay analyses are values of this type, and all operations are
    {e breakpoint-exact}: values and slopes are computed algebraically
    from the operands, with no sampling or discretization anywhere.

    A value represents a function [f : \[0, +oo) -> R] given by finitely
    many affine segments; the last segment extends to infinity.  Functions
    are {e right-continuous}: the value stored at a breakpoint is the
    value on the segment that starts there.  Upward jumps at breakpoints
    are allowed (e.g. a token bucket stores [f 0 = sigma], the
    right-continuous version of the classical [sigma + rho t for t > 0]
    curve; this convention is conservative and standard).

    All functions used by the analyses are nondecreasing, but the algebra
    below does not require it unless stated. *)

type t

(** {1 Content identity}

    A value is its normalized segments and nothing more: {!make} and
    every operation build a fresh value, without hashing it or taking a
    lock.  Content identity is decided on the exact bit patterns of the
    segments ([0.] and [-0.] differ), and it is paid for only where it
    is read:
    - {!uid} interns on demand, giving the {!Minplus} operation cache
      an O(1) content key;
    - the fast paths of {!equal}, {!add}, {!min_pw} and friends test
      for bit-identical operands (physical equality first), so they fire
      however and whenever the operands were built. *)

val uid : t -> int
(** A content key, interned on demand: the segments are hashed and
    looked up in a process-global table, under a lock.  Bit-identical
    segments read while the table holds them get one uid, and
    [uid f = uid g] implies bit-identical segments (not physical
    equality).  Uids are never reused within a process.  The table is
    bounded and reset wholesale past its cap; after a reset equal
    content gets a fresh uid, so uid-keyed caches miss and recompute
    identical values — correctness never depends on the cap.  Not
    stable across runs — a cache key, not a serialization format. *)

type intern_stats = { hits : int; misses : int; entries : int }

val intern_stats : unit -> intern_stats
(** Cumulative {!uid} lookups that found (hits) or added (misses) their
    content since the last [Metrics.reset], and the current number of
    interned contents.  Also published as the [pwl.intern.hits] /
    [pwl.intern.misses] observability counters. *)

val intern_clear : unit -> unit
(** Empty the uid table; later {!uid} reads hand out fresh uids. *)

(** {1 Construction} *)

val make : (float * float * float) list -> t
(** [make segs] builds a function from segments [(x, y, slope)] meaning
    [f t = y + slope * (t - x)] for [t] in [\[x, next_x)].  Requirements:
    the list is nonempty, the first [x] is [0.], the [x] are strictly
    increasing, and all numbers are finite.  Collinear adjacent segments
    are merged.  A first [x] of [-0.] is accepted and stored as [+0.], so
    every value starts at the same bits and a merge's first point does
    not depend on which operand it was read from.
    @raise Invalid_argument on violation. *)

val zero : t
(** The constant 0 function. *)

val constant : float -> t
(** [constant c] is [fun _ -> c].  Requires [c] finite. *)

val affine : y0:float -> slope:float -> t
(** [affine ~y0 ~slope] is [fun t -> y0 +. slope *. t]. *)

val of_sampler : candidates:float list -> eval:(float -> float) -> t
(** [of_sampler ~candidates ~eval] reconstructs a piecewise-linear
    function from an exact evaluator.  [candidates] must contain every
    true breakpoint of the function (extra points and duplicates are
    fine; points are clamped to [>= 0.]).  [eval] must be the
    right-continuous evaluation.  Reserved for genuinely search-like
    operations (deconvolution, the FIFO-theta clipping): the structural
    operations below are exact segmentwise constructions instead, so
    probe noise cannot accumulate through chained uses (see DESIGN.md
    §7). *)

(** {1 Inspection} *)

val eval : t -> float -> float
(** [eval f t] for [t >= 0.] (negative [t] evaluates to [eval f 0.]). *)

val eval_left : t -> float -> float
(** Left limit [f (t-)]; equals [eval f t] except at upward jumps.
    [eval_left f 0. = eval f 0.]. *)

val eval_seq : t -> float array -> float array
(** [eval_seq f ts] evaluates [f] at every point of [ts], which must be
    sorted nondecreasing (negative points are clamped to [0.] first).
    Semantically [Array.map (eval f) ts], but a single monotone cursor
    walks the segments once instead of binary-searching per point —
    O(|ts| + |f|) instead of O(|ts| log |f|).  This is the batch
    evaluator behind the min-plus kernels ({!Minplus.deconv},
    [conv_with_rate]) whose probe sets are sorted by construction.
    @raise Invalid_argument if [ts] decreases. *)

val eval_left_seq : t -> float array -> float array
(** Batch {!eval_left} under the same contract as {!eval_seq}. *)

val segments : t -> (float * float * float) list
(** The segments as given to {!make}, normalized. *)

val breakpoints : t -> float list
(** The abscissae of the segments, increasing, starting with [0.]. *)

val final_slope : t -> float
(** Slope of the last (infinite) segment. *)

val value_at_zero : t -> float
(** [eval f 0.], the (right-continuous) initial value — e.g. the burst of
    a token bucket. *)

val last_breakpoint : t -> float
(** Abscissa of the final (infinite) segment. *)

val is_nondecreasing : t -> bool

val shape : t -> [ `Affine | `Concave | `Convex | `General ]
(** Shape classification used to select convolution algorithms.  A
    function is [`Concave] if it is continuous on [ (0, oo) ] with
    nonincreasing slopes (an upward jump at 0 is allowed), [`Convex] if
    continuous everywhere with nondecreasing slopes, [`Affine] if both. *)

val equal : t -> t -> bool
(** Pointwise equality up to the {!Float_ops.eps}
    tolerance; [true] at once on bit-identical operands.  Otherwise one
    two-cursor scan compares the values at every merged breakpoint, at
    the midpoint of each interval between them, and at two points past
    the last one. *)

val compare : t -> t -> int
(** Total order on curves: physical-equality fast path, then
    lexicographic on the bit patterns of the normalized segments.
    Arbitrary but fixed within and across runs, and independent of
    {!uid} — the right argument for [Map.Make]/[Set.Make] and sorts.
    Bit-exact: [compare f g = 0] is strictly finer than the tolerant
    {!equal}.

    This, {!equal} and {!uid} are the blessed comparison API enforced
    by the [pwl-poly-eq] lint rule: polymorphic [=] / [compare] would
    compare floats by value (so [0.] and [-0.] would match), and
    [Hashtbl.hash] folds only a prefix of the segments. *)

val pp : Format.formatter -> t -> unit

(** {1 Pointwise algebra} *)

val add : t -> t -> t
(** Pointwise sum on the union of the breakpoints, by a two-cursor
    merge: the value and slope at each point are read off the segment
    of each operand that contains it, as {!eval} reads them.  An
    operand bit-identical to {!zero} returns the other one unchanged
    (so a [-0.] value stays [-0.]). *)

val sum : t list -> t
(** Pointwise sum of a list, as a pairwise tree of {!add}'s merge:
    operands whose segments are bit-identical to {!zero}'s are dropped,
    however they were built, then each level merges adjacent pairs left
    to right (an odd last operand rides up unchanged) until one
    remains.  [sum \[\] == zero] and [sum \[f\] == f]; [sum \[f; g\]]
    is [add f g] bit for bit.  For [k] curves with [K] breakpoints in
    all this is O(K log k) segment work, and only the result is
    validated and normalized (one construction, however long the
    list); the intermediate sums are plain arrays.  The order fixes the
    float rounding, so every engine that aggregates through [sum] gets
    bit-identical results. *)

val sub : t -> t -> t
(** [add] with the second operand negated, through the same merge. *)

val scale : float -> t -> t
(** [scale k f] multiplies every value and slope by [k], one pass over
    the segment array. *)

val min_pw : t -> t -> t
(** Pointwise minimum (crossing points become breakpoints), by one
    two-cursor pass: at each merged breakpoint, and at the crossing of
    the two operand segments inside the interval it starts, the values
    and slopes are read off the segments that contain the point, with
    {!eval}'s float operations.  A crossing within [1e-12] (relative) of
    the breakpoint before it is dropped.  Where the two values agree
    within tolerance the slope is the smaller one; elsewhere it is the
    smaller operand's.  Bit-identical operands return the first
    unchanged.  A peaked token bucket is one such pass over two affine
    curves. *)

val max_pw : t -> t -> t
(** Pointwise maximum, as {!min_pw} with the larger value and slope. *)

val nonneg : t -> t
(** [nonneg f = max_pw f zero], written [\[f\]^+] in the papers. *)

val min_list : t list -> t
(** Pointwise minimum of a nonempty list. *)

(** {1 Transformations} *)

val shift_left : t -> float -> t
(** [shift_left f d] is [fun t -> eval f (t +. d)] for [d >= 0.] — the
    envelope of traffic that has suffered at most [d] of delay/jitter.
    The segments left of [d] are dropped, the one containing [d] is cut
    there, and the rest are written translated into the output array. *)

val shift_right : t -> float -> t
(** [shift_right f d] is [fun t -> if t < d then 0. else eval f (t -. d)]
    for [d >= 0.] — e.g. delaying a service curve.  One pass writes a
    zero segment and the translated segments. *)

val compose : outer:t -> inner:t -> t
(** [compose ~outer ~inner] is [fun t -> eval outer (eval inner t)].
    Requires [inner] nondecreasing and nonnegative.  Exact. *)

val pseudo_inverse : t -> t
(** Upper pseudo-inverse [f^{-1}(y) = sup { x : f x <= y }] of a
    nondecreasing function, returned as a right-continuous
    piecewise-linear function of [y] (with [f^{-1}(y) = 0.] below
    [f 0.]).  The upper variant is the right-continuous one, hence
    representable; it dominates the lower pseudo-inverse
    [inf { x : f x >= y }] and the two differ only on the (finitely
    many) ordinates where [f] is flat, so delay bounds computed with it
    remain valid upper bounds and are exact for strictly increasing
    curves.  Flat segments of [f] become jumps of the inverse and jumps
    of [f] become flat segments.  Requires [final_slope f > 0.].
    @raise Invalid_argument if [f] decreases or is eventually flat. *)


val running_max : t -> t
(** [running_max f = fun t -> sup_{0 <= s <= t} f s] — the smallest
    nondecreasing majorant.  The identity on nondecreasing functions;
    used to scrub sub-tolerance negative slopes introduced by repeated
    floating-point reconstructions before an operation that requires
    monotonicity. *)

val lower_convex_hull : t -> t
(** Greatest convex minorant.  Used to turn members of the FIFO
    service-curve family (which may jump) into valid convex service
    curves without losing more than the hull requires. *)

(** {1 Suprema and crossings} *)

val sup_diff : t -> t -> float
(** [sup_diff f g = sup_{t >= 0} (f t -. g t)], which is [infinity] when
    [final_slope f > final_slope g].  Left limits at jumps are taken into
    account, so the result is a true supremum over the right- and
    left-continuous versions.  One two-cursor scan over the merged
    breakpoints, reading each value and left limit as {!eval} and
    {!eval_left} would. *)

val sup_on : t -> lo:float -> hi:float -> float
(** Supremum of [f] on [\[lo, hi\]] ([hi] may be [infinity] only if the
    final slope is [<= 0.]): the values and left limits at [lo], at
    [hi], and at the breakpoints in between, found by a binary search
    for [lo] and a scan from there. *)

val first_crossing_below : t -> rate:float -> float
(** [first_crossing_below f ~rate] is [inf { t > 0 : f t <= rate *. t }]
    — the busy-period bound of an aggregate envelope [f] served at
    [rate].  Returns [infinity] when no such [t] exists (unstable
    server).  For [f 0. = 0.] with initial slope [<= rate] this is
    [0.]. *)

val first_crossing_under : t -> below:t -> float
(** [first_crossing_under f ~below:g = inf { t > 0 : f t <= g t }] —
    the busy-period bound of an envelope [f] served according to a
    service curve [g] (generalizes {!first_crossing_below} to
    non-constant-rate service, e.g. the leftover curve of a
    static-priority class).  [infinity] when [f] stays above [g].  The
    candidates are {!min_pw}'s points (merged breakpoints and the
    crossing inside each interval), from one two-cursor pass. *)
