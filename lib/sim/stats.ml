type t = { mutable max : float }

let create () = { max = 0. }
let record t x = if x > t.max then t.max <- x
let max_value t = t.max
