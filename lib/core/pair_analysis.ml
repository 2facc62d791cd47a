type input = {
  c1 : float;
  c2 : float;
  s12 : Pwl.t list;
  s1 : Pwl.t list;
  s2 : Pwl.t list;
}

type general_input = {
  link1 : float;
  beta1 : Pwl.t;
  beta2 : Pwl.t;
  g12 : Pwl.t;
  g1 : Pwl.t;
  g2 : Pwl.t;
}

type result = {
  d_pair : float;
  d1 : float;
  d2 : float;
  busy1 : float;
  busy2 : float;
  window1 : Pwl.t;
  window2 : Pwl.t;
}

let single_general ~beta ~agg = Deviation.hdev ~alpha:agg ~beta

let identity = Pwl.affine ~y0:0. ~slope:1.

let check_service name beta =
  if Pwl.final_slope beta <= 0. then
    invalid_arg (Printf.sprintf "Pair_analysis: %s offers no long-run service" name);
  match Pwl.shape beta with
  | `Convex | `Affine -> ()
  | `Concave | `General ->
      invalid_arg
        (Printf.sprintf "Pair_analysis: %s must be a convex service curve" name)

(* The integrated pair bound of DESIGN.md §3.3, in service-curve form.
   The tagged s12 bit arrives at server 1 at time s of its class busy
   period (origin 0), leaves server 1 by tau = t1 s = max(s,
   beta1^{-1}(G1 s)), and leaves server 2 by u2 + beta2^{-1}(arrivals
   of its class into server 2 during (u2, tau]) where u2 is the start
   of server 2's class busy period and w = tau - u2.  Transit into
   server 2 over that window is universally capped by
   min(link1 w, F12 (w + d1)) (physical link rate; Cruz output
   characterization); when u2 >= 0 (case A, w <= tau) it is
   additionally capped by F12 tau, because server 1 had no class
   backlog just before 0 so all of it arrived after 0 — the
   integration step Algorithm Decomposed misses.  FIFO servers are the
   special case beta_i = lambda_(C_i). *)
let c_analyze = Metrics.counter "pair.analyze.calls"
let d_candidates = Metrics.dist "pair.analyze.s_candidates"

let analyze_general { link1; beta1; beta2; g12; g1; g2 } =
  Prof.count c_analyze;
  Prof.span "pair.analyze" @@ fun () ->
  if link1 <= 0. then invalid_arg "Pair_analysis: nonpositive link rate";
  check_service "beta1" beta1;
  check_service "beta2" beta2;
  let g_server1 = Pwl.add g12 g1 in
  let f12 = g12 and f2 = g2 in
  let d1 = Deviation.hdev ~alpha:g_server1 ~beta:beta1 in
  let busy1 = Pwl.first_crossing_under g_server1 ~below:beta1 in
  let link = Pwl.affine ~y0:0. ~slope:link1 in
  let transit_window =
    if d1 = infinity then link
    else Pwl.min_pw link (Pwl.shift_left f12 d1)
  in
  let a2_window = Pwl.add transit_window f2 in
  let d2 = Deviation.hdev ~alpha:a2_window ~beta:beta2 in
  let busy2 = Pwl.first_crossing_under a2_window ~below:beta2 in
  let d_pair =
    if d1 = infinity || d2 = infinity then infinity
    else begin
      let beta1_inv = Pwl.pseudo_inverse beta1 in
      let beta2_inv = Pwl.pseudo_inverse beta2 in
      let t1 =
        Pwl.max_pw identity (Pwl.compose ~outer:beta1_inv ~inner:g_server1)
      in
      let mf = Pwl.compose ~outer:f12 ~inner:t1 in
      let f12_shifted = Pwl.shift_left f12 d1 in
      (* chi_b w = beta2^{-1}(min(link1 w, F12 (w + d1)) + F2 w) - w :
         the case-B integrand, independent of s. *)
      let chi_b =
        Pwl.sub
          (Pwl.compose ~outer:beta2_inv
             ~inner:(Pwl.add (Pwl.min_pw link f12_shifted) f2))
          identity
      in
      (* Candidate s values: every point where the affine description
         of the inner suprema can change.  Between consecutive
         candidates the bound is a maximum of affine functions of s,
         hence convex, so the outer supremum is attained at a
         candidate. *)
      let preimages_of_breakpoints outer inner =
        Pwl.breakpoints (Pwl.compose ~outer ~inner)
      in
      let t1_plus_b2 =
        if Float.is_finite busy2 then Pwl.add t1 (Pwl.constant busy2) else t1
      in
      let mf_over_c1 = Pwl.scale (1. /. link1) mf in
      let s_candidates =
        (0. :: busy1
        :: (Pwl.breakpoints t1 @ Pwl.breakpoints mf
           @ Pwl.breakpoints (Pwl.min_pw mf_over_c1 t1)
           @ preimages_of_breakpoints f2 mf_over_c1
           @ preimages_of_breakpoints f12_shifted mf_over_c1
           @ preimages_of_breakpoints chi_b t1
           @ preimages_of_breakpoints chi_b t1_plus_b2))
        |> List.filter (fun s -> s >= 0. && s <= busy1)
        |> List.sort_uniq compare
      in
      if Prof.enabled () then
        Metrics.observe d_candidates
          (float_of_int (List.length s_candidates));
      let bound_at s =
        let tau = Pwl.eval t1 s in
        let m = Pwl.eval mf s in
        let chi_a =
          Pwl.sub
            (Pwl.compose ~outer:beta2_inv
               ~inner:
                 (Pwl.add
                    (Pwl.min_list [ link; Pwl.constant m; f12_shifted ])
                    f2))
            identity
        in
        let inner_a =
          Float_ops.positive_part (Pwl.sup_on chi_a ~lo:0. ~hi:tau)
        in
        let inner_b = Pwl.sup_on chi_b ~lo:tau ~hi:(tau +. busy2) in
        tau -. s +. Float.max inner_a inner_b
      in
      Float.max d1 (Float_ops.max_list (List.map bound_at s_candidates))
    end
  in
  { d_pair; d1; d2; busy1; busy2; window1 = g_server1; window2 = a2_window }

let analyze { c1; c2; s12; s1; s2 } =
  if c1 <= 0. || c2 <= 0. then invalid_arg "Pair_analysis: nonpositive rate";
  analyze_general
    {
      link1 = c1;
      beta1 = Service.constant_rate c1;
      beta2 = Service.constant_rate c2;
      g12 = Pwl.sum s12;
      g1 = Pwl.sum s1;
      g2 = Pwl.sum s2;
    }
