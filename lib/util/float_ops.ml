let eps = 1e-9

let ( =~ ) a b =
  if a = b then true
  else if Float.is_nan a || Float.is_nan b then false
  else if not (Float.is_finite a) || not (Float.is_finite b) then false
  else
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= eps *. scale

let eq_exact (a : float) b = a = b [@@inline]
let ( <~ ) a b = a < b && not (a =~ b)
let ( <=~ ) a b = a < b || a =~ b
let is_finite = Float.is_finite

let positive_part x = Float.max x 0.
let max_list = List.fold_left Float.max neg_infinity
