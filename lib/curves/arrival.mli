(** Arrival curves (traffic constraint functions, paper Def. 2).

    A flow with arrival function [f] conforms to arrival curve [b] when
    [f (t + I) - f t <= b I] for all [t, I >= 0] (Eq. (3)).  The paper's
    sources are token buckets with unit peak rate (Eq. (4)):
    [b I = min { I, sigma + rho I }].

    A symbolic {!spec} builds and validates the piecewise-linear curve;
    only the curve is kept, and {!token_params} reads token-bucket
    parameters back off it. *)

type spec =
  | Token_bucket of { sigma : float; rho : float; peak : float }
      (** [min { peak * I, sigma + rho * I }]; [peak = infinity] gives
          the classic (sigma, rho) curve.  Requires [0 <= rho],
          [0 <= sigma], [rho <= peak]. *)
  | Multi of spec list
      (** Pointwise minimum of several constraints (multi-leaky-bucket).
          Must be nonempty. *)
  | General of Pwl.t
      (** An arbitrary concave envelope (e.g. the output of an upstream
          analysis). *)

type t

val make : spec -> t
(** Build and validate; @raise Invalid_argument on bad parameters or a
    non-concave [General] curve. *)

val token_bucket : ?peak:float -> sigma:float -> rho:float -> unit -> t
(** Convenience for [make (Token_bucket ...)]; [peak] defaults to
    [infinity]. *)

val paper_source : sigma:float -> rho:float -> t
(** The source of the paper's evaluation: token bucket with peak rate 1
    (the normalized link speed), [b I = min { I, sigma + rho I }]. *)

val of_curve : Pwl.t -> t
(** [make (General c)]. *)

val curve : t -> Pwl.t
(** The envelope as a piecewise-linear function. *)

val rate : t -> float
(** Long-run rate [lim b(I)/I] — the final slope of the curve. *)

val burst : t -> float
(** [b 0+], i.e. {!Pwl.value_at_zero} of the curve. *)

val eval : t -> float -> float

val token_params : t -> float * float * float
(** [(sigma, rho, peak)] of the best token-bucket description of the
    envelope: [rho] is the long-run rate, [sigma] the intercept of the
    final affine piece (the effective burst once the peak constraint
    has played out), and [peak] the initial slope ([infinity] when the
    curve jumps at 0).  Exact for token-bucket specs; used by the
    simulator's conforming emitters. *)
