(* unused-export (clean): see the interface. *)

let applied x = x + 1
let passed x = x * 2
