(** Binary min-heap of timestamped events.

    Ties are broken by insertion order, so simultaneous events are
    processed deterministically (FIFO among equal times). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on a NaN time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)
