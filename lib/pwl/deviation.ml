
let hdev ~alpha ~beta =
  let open Float_ops in
  if Pwl.final_slope beta <~ Pwl.final_slope alpha then infinity
  else
    let beta_inv = Pwl.pseudo_inverse beta in
    let departure = Pwl.compose ~outer:beta_inv ~inner:alpha in
    let identity = Pwl.affine ~y0:0. ~slope:1. in
    Float_ops.positive_part (Pwl.sup_diff departure identity)

let vdev ~alpha ~beta = Float_ops.positive_part (Pwl.sup_diff alpha beta)

let vdev_per_flow ~alpha_i ~agg ~beta =
  let open Float_ops in
  if Pwl.final_slope beta <~ Pwl.final_slope agg then infinity
  else
    (* Naive split: the flow's backlog is bounded by what it can emit
       during one aggregate delay bound, and by the whole queue. *)
    let naive =
      let d = hdev ~alpha:agg ~beta in
      if is_finite d then Float.min (Pwl.eval alpha_i d) (vdev ~alpha:agg ~beta)
      else infinity
    in
    if not (is_finite naive) then infinity
    else if Pwl.final_slope agg <= 0. then naive
    else
      (* Refinement: at busy-period age tau the data of flow i still
         queued entered within the last [gap tau] time units, where
         [gap tau = tau - sup { u : agg u <= beta tau }] (FIFO: older
         flow-i data left with the older aggregate prefix).  Both
         bounds hold at the same tau, so
         [B_i = sup_tau min (alpha_i (gap tau)) (agg tau - beta tau)]. *)
      let served = Pwl.compose ~outer:(Pwl.pseudo_inverse agg) ~inner:beta in
      let gap = Pwl.nonneg (Pwl.sub (Pwl.affine ~y0:0. ~slope:1.) served) in
      (* [alpha_i . gap] is piecewise affine but [gap] is not monotone,
         so [Pwl.compose] does not apply: rebuild it by sampling at its
         true kinks — the kinks of [gap] plus the preimages under [gap]
         of the kinks of [alpha_i], solved per segment. *)
      let preimages =
        let kinks = Pwl.breakpoints alpha_i in
        let segs = Array.of_list (Pwl.segments gap) in
        let acc = ref [] in
        Array.iteri
          (fun i (x, y, s) ->
            let hi =
              if i + 1 < Array.length segs then
                let x', _, _ = segs.(i + 1) in
                x'
              else infinity
            in
            if not (eq_exact s 0.) then
              List.iter
                (fun b ->
                  let tau = x +. ((b -. y) /. s) in
                  if is_finite tau && tau >= x && tau <= hi then
                    acc := tau :: !acc)
                kinks)
          segs;
        !acc
      in
      let candidates = (0. :: Pwl.breakpoints gap) @ preimages in
      let h1 =
        Pwl.of_sampler ~candidates
          ~eval:(fun tau -> Pwl.eval alpha_i (Pwl.eval gap tau))
      in
      let m = Pwl.min_pw h1 (Pwl.sub agg beta) in
      Float.min naive (positive_part (Pwl.sup_diff m Pwl.zero))

let delay_fifo_aggregate ~agg ~rate =
  if rate <= 0. then invalid_arg "Deviation.delay_fifo_aggregate: rate <= 0";
  if not (Minplus.stable ~agg ~rate) then infinity
  else
    let service = Pwl.affine ~y0:0. ~slope:rate in
    Float_ops.positive_part (Pwl.sup_diff agg service) /. rate
