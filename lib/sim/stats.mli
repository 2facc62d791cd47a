(** Online per-flow delay statistics: the running maximum. *)

type t

val create : unit -> t
val record : t -> float -> unit
val max_value : t -> float
(** [0.] when empty. *)
