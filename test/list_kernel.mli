(** The list-based versions of the {!Pwl} operations that now run as
    array cursor scans, kept as a test oracle: each one walks sorted
    candidate lists and evaluates both operands with {!Pwl.eval},
    {!Pwl.eval_left} and a binary-search right slope at every point,
    as the library did before the scans replaced it.  The differential
    suite compares the two bit for bit. *)

val min_pw : Pwl.t -> Pwl.t -> Pwl.t
val max_pw : Pwl.t -> Pwl.t -> Pwl.t
val sup_diff : Pwl.t -> Pwl.t -> float
val sup_on : Pwl.t -> lo:float -> hi:float -> float
val first_crossing_under : Pwl.t -> below:Pwl.t -> float
val equal : Pwl.t -> Pwl.t -> bool
val shift_left : Pwl.t -> float -> Pwl.t
val shift_right : Pwl.t -> float -> Pwl.t
val scale : float -> Pwl.t -> Pwl.t
