
let constant_rate rate =
  if rate <= 0. then invalid_arg "Service.constant_rate: rate <= 0";
  Pwl.affine ~y0:0. ~slope:rate

let rate_latency ~rate ~latency =
  if rate <= 0. then invalid_arg "Service.rate_latency: rate <= 0";
  if latency < 0. then invalid_arg "Service.rate_latency: negative latency";
  Pwl.nonneg (Pwl.affine ~y0:(-.rate *. latency) ~slope:rate)

let leftover ~rate ~cross =
  Pwl.lower_convex_hull
    (Pwl.nonneg (Pwl.sub (constant_rate rate) cross))

let fifo_theta ~rate ~cross ~theta =
  if theta < 0. then invalid_arg "Service.fifo_theta: negative theta";
  if Float_ops.eq_exact theta 0. then leftover ~rate ~cross
  else
    let shifted_cross = Pwl.shift_right cross theta in
    let member = Pwl.nonneg (Pwl.sub (constant_rate rate) shifted_cross) in
    (* Zero out [0, theta): the family member gives no service before
       theta.  The result may jump at theta; take its convex hull, which
       is a valid (<=) service curve. *)
    let clipped =
      Pwl.of_sampler
        ~candidates:(theta :: Pwl.breakpoints member)
        ~eval:(fun t -> if t < theta then 0. else Pwl.eval member t)
    in
    Pwl.lower_convex_hull clipped

let is_service_curve beta =
  Pwl.is_nondecreasing beta
  && Float_ops.eq_exact (Pwl.value_at_zero beta) 0.
  && match Pwl.shape beta with `Convex | `Affine -> true | _ -> false
