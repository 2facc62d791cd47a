(* Differential tests of the piecewise-linear algebra against
   brute-force reference computations on dense grids, plus coverage of
   the hull/crossing helpers added for the static-priority
   extension. *)

open Testutil

let grid lo hi n =
  List.init (n + 1) (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int n))

(* ------------------------------------------------------------------ *)
(* Lower convex hull                                                   *)
(* ------------------------------------------------------------------ *)

let test_hull_of_convex_is_identity () =
  let f = Minplus.conv_list
      [ rate_latency ~rate:1. ~latency:2.; rate_latency ~rate:3. ~latency:0.5 ]
  in
  check_bool "hull of convex = itself" true
    (Pwl.equal f (Pwl.lower_convex_hull f))

let test_hull_below_function () =
  (* A zig-zag: hull must be below and convex. *)
  let f = Pwl.make [ (0., 0., 3.); (1., 3., 0.); (2., 3., 2.) ] in
  let h = Pwl.lower_convex_hull f in
  List.iter
    (fun t ->
      check_bool "hull below" true (Pwl.eval h t <= Pwl.eval f t +. 1e-9))
    (grid 0. 8. 64);
  check_bool "hull convex" true
    (match Pwl.shape h with `Convex | `Affine -> true | _ -> false)

let test_hull_with_jump () =
  (* Jump up at 2: the hull bridges it linearly. *)
  let f = Pwl.make [ (0., 0., 0.); (2., 4., 1.) ] in
  let h = Pwl.lower_convex_hull f in
  List.iter
    (fun t ->
      check_bool "hull below jump function" true
        (Pwl.eval h t <= Float.min (Pwl.eval f t) (Pwl.eval_left f t) +. 1e-9))
    (grid 0. 6. 48)

let prop_hull_greatest_convex_minorant =
  qtest ~count:100 "hull dominates any convex minorant candidate"
    QCheck2.Gen.(pair gen_concave gen_time)
    (fun (f, t) ->
      (* The hull of a concave nondecreasing f with f(0) >= 0 must stay
         nonnegative and below f. *)
      let h = Pwl.lower_convex_hull f in
      let v = Pwl.eval h t in
      v >= -1e-9 && v <= Pwl.eval f t +. 1e-9)

(* ------------------------------------------------------------------ *)
(* first_crossing_under                                                *)
(* ------------------------------------------------------------------ *)

let test_crossing_under_line_matches_rate_version () =
  let f = Pwl.affine ~y0:2. ~slope:0.5 in
  approx "matches first_crossing_below"
    (Pwl.first_crossing_below f ~rate:1.)
    (Pwl.first_crossing_under f ~below:(Pwl.affine ~y0:0. ~slope:1.))

let test_crossing_under_rate_latency () =
  (* Envelope 1 + 0.25 t vs leftover curve (t - 2)^+:
     1 + 0.25 t = t - 2  =>  t = 4. *)
  let f = Pwl.affine ~y0:1. ~slope:0.25 in
  let beta = rate_latency ~rate:1. ~latency:2. in
  approx "busy period vs curve" 4. (Pwl.first_crossing_under f ~below:beta)

let test_crossing_under_never () =
  let f = Pwl.affine ~y0:1. ~slope:1. in
  approx "never crosses" infinity
    (Pwl.first_crossing_under f ~below:(Pwl.affine ~y0:0. ~slope:0.5))

let prop_crossing_under_is_sound =
  qtest ~count:150 "f is below g just after the crossing"
    QCheck2.Gen.(pair gen_concave gen_convex)
    (fun (f, g) ->
      QCheck2.assume (Pwl.final_slope f < Pwl.final_slope g -. 1e-3);
      let t = Pwl.first_crossing_under f ~below:g in
      Float.is_finite t
      && Pwl.eval f (t +. 1e-6) <= Pwl.eval g (t +. 1e-6) +. 1e-3)

(* ------------------------------------------------------------------ *)
(* Brute-force differential checks                                     *)
(* ------------------------------------------------------------------ *)

let brute_deconv f g t =
  (* sup over s >= 0 of f (t + s) - g s: on a generous grid, at g's
     breakpoints, and where t + s meets one of f's.  The sup can sit at
     a breakpoint of f far beyond the grid. *)
  let at_f =
    List.filter_map
      (fun x -> if x >= t then Some (x -. t) else None)
      (Pwl.breakpoints f)
  in
  List.fold_left
    (fun acc s -> Float.max acc (Pwl.eval f (t +. s) -. Pwl.eval g s))
    neg_infinity
    (grid 0. 60. 600 @ Pwl.breakpoints g @ at_f)

let prop_deconv_matches_brute_force =
  qtest ~count:60 "deconvolution matches brute force"
    QCheck2.Gen.(triple gen_concave gen_convex gen_time)
    (fun (alpha, beta, t) ->
      QCheck2.assume (Pwl.final_slope alpha <= Pwl.final_slope beta -. 1e-2);
      let exact = Pwl.eval (Minplus.deconv alpha beta) t in
      let brute = brute_deconv alpha beta t in
      (* The grid under-approximates the sup, so exact >= brute, and
         they must be close. *)
      exact >= brute -. 1e-6
      && exact -. brute <= 0.05 *. Float.max 1. (Float.abs exact) +. 0.2)

let brute_hdev alpha beta =
  (* sup over t of inf over d of { alpha t <= beta (t + d) }, with t at
     0, at either curve's breakpoints and on the grid.  The sup can sit
     at a breakpoint of alpha far beyond the grid. *)
  List.fold_left
    (fun acc t ->
      let target = Pwl.eval alpha t in
      let rec find_d lo hi =
        if hi -. lo < 1e-6 then hi
        else
          let mid = (lo +. hi) /. 2. in
          if Pwl.eval beta (t +. mid) >= target then find_d lo mid
          else find_d mid hi
      in
      Float.max acc (find_d 0. 200.))
    0.
    ((0. :: Pwl.breakpoints alpha) @ Pwl.breakpoints beta @ grid 0. 60. 600)

let prop_hdev_matches_brute_force =
  qtest ~count:40 "horizontal deviation matches brute force"
    QCheck2.Gen.(pair gen_concave gen_convex)
    (fun (alpha, beta) ->
      QCheck2.assume (Pwl.final_slope alpha <= Pwl.final_slope beta -. 1e-2);
      let exact = Deviation.hdev ~alpha ~beta in
      let brute = brute_hdev alpha beta in
      exact >= brute -. 1e-4
      && exact -. brute <= 0.05 *. Float.max 1. exact +. 0.2)

let prop_vdev_matches_brute_force =
  (* alpha concave minus beta convex is concave, so the supremum is
     attained at a breakpoint of either curve (or at 0), unless the
     final ray diverges.  Sampling those candidates plus a dense grid
     must reproduce [Deviation.vdev] exactly in the stable case. *)
  qtest ~count:100 "vertical deviation matches brute force"
    QCheck2.Gen.(pair gen_concave gen_convex)
    (fun (alpha, beta) ->
      let exact = Deviation.vdev ~alpha ~beta in
      if Pwl.final_slope alpha > Pwl.final_slope beta +. 1e-9 then
        exact = infinity
      else begin
        let candidates =
          (0. :: Pwl.breakpoints alpha) @ Pwl.breakpoints beta
          @ grid 0. 120. 960
        in
        let brute =
          List.fold_left
            (fun acc t -> Float.max acc (Pwl.eval alpha t -. Pwl.eval beta t))
            neg_infinity candidates
        in
        (not (Float.is_finite exact))
        || Float.abs (exact -. brute)
           <= 1e-6 *. Float.max 1. (Float.abs exact)
      end)

let prop_compose_pointwise =
  qtest ~count:100 "composition is pointwise"
    QCheck2.Gen.(triple gen_convex gen_concave gen_time)
    (fun (outer, inner, t) ->
      let h = Pwl.compose ~outer ~inner in
      Float.abs (Pwl.eval h t -. Pwl.eval outer (Pwl.eval inner t))
      <= 1e-6 *. Float.max 1. (Float.abs (Pwl.eval h t)))

let prop_shift_left_window =
  qtest ~count:100 "shift_left agrees with evaluation"
    QCheck2.Gen.(triple gen_concave (QCheck2.Gen.float_range 0. 10.) gen_time)
    (fun (f, d, t) ->
      Float.abs (Pwl.eval (Pwl.shift_left f d) t -. Pwl.eval f (t +. d))
      <= 1e-9 *. Float.max 1. (Pwl.eval f (t +. d)))

let prop_pseudo_inverse_galois =
  qtest ~count:150 "upper pseudo-inverse Galois connection"
    QCheck2.Gen.(pair gen_convex (QCheck2.Gen.float_range 0. 40.))
    (fun (f, y) ->
      QCheck2.assume (Pwl.final_slope f > 1e-3);
      let inv = Pwl.pseudo_inverse f in
      let x = Pwl.eval inv y in
      (* f(x') <= y for every x' < x (x is the sup of that set). *)
      let x' = Float.max 0. (x -. 1e-6) in
      Pwl.eval f x' <= y +. 1e-4)

(* Convolution of a concave arrival with itself stays above the
   original only at 0 (conv is idempotent-ish: min f f = f). *)
let prop_conv_idempotent_concave =
  qtest "concave convolution is idempotent (min f f = f)" gen_concave
    (fun f -> Pwl.equal (Minplus.conv f f) f)

let suite =
  ( "pwl-deep",
    [
      test "hull of convex is identity" test_hull_of_convex_is_identity;
      test "hull below zig-zag" test_hull_below_function;
      test "hull bridges jumps" test_hull_with_jump;
      prop_hull_greatest_convex_minorant;
      test "crossing under a line" test_crossing_under_line_matches_rate_version;
      test "crossing under rate-latency" test_crossing_under_rate_latency;
      test "crossing never happens" test_crossing_under_never;
      prop_crossing_under_is_sound;
      prop_deconv_matches_brute_force;
      prop_hdev_matches_brute_force;
      prop_vdev_matches_brute_force;
      prop_compose_pointwise;
      prop_shift_left_window;
      prop_pseudo_inverse_galois;
      prop_conv_idempotent_concave;
    ] )
