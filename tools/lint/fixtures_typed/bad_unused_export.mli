(* unused-export (bad): no other unit of the corpus references this. *)

val orphan : int -> int
