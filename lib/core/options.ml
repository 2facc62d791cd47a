type t = { link_cap : bool; sp_blocking : float }

let default = { link_cap = false; sp_blocking = 0. }
let sharpened = { default with link_cap = true }
let with_blocking b t = { t with sp_blocking = b }
