(** Tolerant floating-point comparisons and guarded arithmetic.

    Every quantity in the analysis (times, rates, amounts of traffic) is a
    nonnegative float, with [infinity] used for unbounded delays and
    unconstrained curves.  All comparisons in the piecewise-linear algebra
    go through this module so the tolerance policy lives in one place. *)

val eps : float
(** Absolute/relative tolerance used by the [=~] family, [1e-9]. *)

val ( =~ ) : float -> float -> bool
(** [a =~ b] holds when [a] and [b] are equal up to a mixed
    absolute/relative tolerance of {!eps}.  Both infinities compare equal
    to themselves. *)

val eq_exact : float -> float -> bool
(** IEEE bit-for-bit [=] spelled out.  The blessed escape hatch for the
    [float-eq] lint rule: use it where exact equality is the point — a
    sentinel test like [d = 0.] before a fast path, or distinguishing a
    stored value from a recomputed one — so every remaining raw [=] on
    floats is a tolerance bug waiting to be found. *)

val ( <~ ) : float -> float -> bool
(** [a <~ b] is [a < b] and not [a =~ b]: strictly less, beyond tolerance. *)

val ( <=~ ) : float -> float -> bool
(** [a <=~ b] is [a < b || a =~ b]. *)

val is_finite : float -> bool
(** True for ordinary floats; false for [nan] and both infinities. *)

val positive_part : float -> float
(** [positive_part x] is [max x 0.]. *)

val max_list : float list -> float
(** Maximum of a list, [neg_infinity] on the empty list. *)
