(* unused-export (clean): Bad_unused_export references both values,
   one applied and one passed as a function. *)

val applied : int -> int
val passed : int -> int
