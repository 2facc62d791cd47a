let demand_bound flows =
  List.iter
    (fun (_, d) -> if d < 0. then invalid_arg "Edf: negative deadline")
    flows;
  Pwl.sum (List.map (fun (alpha, d) -> Pwl.shift_right alpha d) flows)

(* [sup_t (demand t - C t)]: nonpositive iff the deadlines are met. *)
let slack ~rate flows =
  Pwl.sup_diff (demand_bound flows) (Service.constant_rate rate)

let feasible ~rate flows =
  let open Float_ops in
  slack ~rate flows <=~ 0.

let local_delay ~rate flows ~deadline =
  if feasible ~rate flows then deadline else infinity
