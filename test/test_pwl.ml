(* Tests for the piecewise-linear algebra: construction, pointwise
   operations, transformations, pseudo-inverse, suprema, min-plus
   convolution/deconvolution and deviations. *)

open Testutil

let token_bucket ~sigma ~rho = Pwl.affine ~y0:sigma ~slope:rho

(* ------------------------------------------------------------------ *)
(* Construction and evaluation                                         *)
(* ------------------------------------------------------------------ *)

let test_eval_basic () =
  let f = Pwl.make [ (0., 1., 2.); (3., 7., 0.5) ] in
  approx "f 0" 1. (Pwl.eval f 0.);
  approx "f 2" 5. (Pwl.eval f 2.);
  approx "f 3" 7. (Pwl.eval f 3.);
  approx "f 5" 8. (Pwl.eval f 5.);
  approx "f (-1) clamps" 1. (Pwl.eval f (-1.))

let test_eval_jump () =
  (* Upward jump at t = 2: left limit 2, right value 5. *)
  let f = Pwl.make [ (0., 0., 1.); (2., 5., 1.) ] in
  approx "right value" 5. (Pwl.eval f 2.);
  approx "left limit" 2. (Pwl.eval_left f 2.);
  approx "left limit inside segment" 1. (Pwl.eval_left f 1.)

let test_make_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Pwl.make: empty segment list")
    (fun () -> ignore (Pwl.make []));
  (try
     ignore (Pwl.make [ (1., 0., 0.) ]);
     Alcotest.fail "expected Invalid_argument for first x <> 0"
   with Invalid_argument _ -> ());
  (try
     ignore (Pwl.make [ (0., 0., 0.); (0., 1., 1.) ]);
     Alcotest.fail "expected Invalid_argument for non-increasing x"
   with Invalid_argument _ -> ())

let test_normalize_collinear () =
  let f = Pwl.make [ (0., 0., 1.); (2., 2., 1.); (4., 4., 3.) ] in
  Alcotest.(check int) "collinear segments merged" 2
    (List.length (Pwl.segments f))

let test_shape () =
  let tb = token_bucket ~sigma:1. ~rho:0.5 in
  let rl = rate_latency ~rate:1. ~latency:2. in
  Alcotest.(check bool) "token bucket affine" true (Pwl.shape tb = `Affine);
  Alcotest.(check bool) "rate-latency convex" true (Pwl.shape rl = `Convex);
  let concave = Pwl.min_pw (Pwl.affine ~y0:0. ~slope:2.) tb in
  Alcotest.(check bool) "min of affines concave" true
    (Pwl.shape concave = `Concave)

(* ------------------------------------------------------------------ *)
(* Pointwise algebra                                                   *)
(* ------------------------------------------------------------------ *)

let test_add_sub_scale () =
  let f = token_bucket ~sigma:1. ~rho:0.5 in
  let g = rate_latency ~rate:2. ~latency:1. in
  let s = Pwl.add f g in
  List.iter
    (fun t -> approx "add" (Pwl.eval f t +. Pwl.eval g t) (Pwl.eval s t))
    [ 0.; 0.5; 1.; 1.5; 3.; 10. ];
  let d = Pwl.sub s g in
  List.iter (fun t -> approx "sub" (Pwl.eval f t) (Pwl.eval d t))
    [ 0.; 1.; 2.; 7. ];
  let k = Pwl.scale 3. f in
  approx "scale" (3. *. Pwl.eval f 2.) (Pwl.eval k 2.)

let test_sum_neutral () =
  let f = Pwl.make [ (0., 1., 2.); (1., 3., 0.5) ] in
  let g = token_bucket ~sigma:2. ~rho:1. in
  check_bool "sum [] == zero" true (Pwl.sum [] == Pwl.zero);
  check_bool "sum [f] == f" true (Pwl.sum [ f ] == f);
  check_bool "zero operands dropped" true (Pwl.sum [ Pwl.zero; f; Pwl.zero ] == f);
  check_bool "all-zero sum is zero" true (Pwl.sum [ Pwl.zero; Pwl.zero ] == Pwl.zero);
  check_bool "sum of two is add, bit for bit" true
    (Pwl.compare (Pwl.sum [ f; Pwl.zero; g ]) (Pwl.add f g) = 0)

(* A hub: 2000 three-piece curves with distinct knees.  Pinned by the
   construction count, not by wall time: the whole sum is one
   construction, where a fold of [add] would build 1999
   intermediates. *)
let test_sum_hub () =
  let curves =
    List.init 2000 (fun i ->
        let k = 1. +. (float_of_int i /. 1000.) in
        Pwl.make
          [ (0., 1., 2.); (k, 1. +. (2. *. k), 1.); (2. *. k, 1. +. (3. *. k), 0.5) ])
  in
  let c = Metrics.counter "pwl.make.calls" in
  Obs.enable ();
  let before = Metrics.value c in
  let s = Fun.protect ~finally:Obs.disable (fun () -> Pwl.sum curves) in
  Alcotest.(check int) "one construction" 1 (Metrics.value c - before);
  let points =
    List.sort_uniq Float.compare (List.concat_map Pwl.breakpoints curves)
  in
  List.iter
    (fun x ->
      let expected = List.fold_left (fun acc f -> acc +. Pwl.eval f x) 0. curves in
      if not Float_ops.(Pwl.eval s x =~ expected) then
        Alcotest.failf "sum at %g: expected %.17g, got %.17g" x expected (Pwl.eval s x))
    points

(* The only test of the pwl.segments.{total,max} metrics, which the
   scale smoke and the benchmark read as the curve workload. *)
let test_segment_metrics () =
  Obs.enable ();
  Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Metrics.reset ())
  @@ fun () ->
  let n = 50 in
  ignore
    (Pwl.make
       (List.init n (fun k -> (float_of_int k, float_of_int (k + 1), 0.))));
  let snap = Metrics.snapshot () in
  let total =
    Option.value ~default:0
      (List.assoc_opt "pwl.segments.total" snap.Metrics.counters)
  in
  let peak =
    Option.value ~default:0
      (List.assoc_opt "pwl.segments.max" snap.Metrics.peaks)
  in
  check_bool "segments.total counts the curve" true (total >= n);
  check_bool "segments.max saw the curve" true (peak >= n)

(* The neutral-element fast paths test content, not identity: a zero
   curve built after the uid table was emptied is still dropped, so
   the result does not depend on when the table last reset.  Keeping
   it would re-pair [sum]'s tree (0.1 + 0.5 instead of 0.3 + 0.3) and
   turn [add]'s [-0.] into [+0.]. *)
let test_zero_by_content () =
  let a = Pwl.constant 0.1 and b = Pwl.constant 0.2 and c = Pwl.constant 0.3 in
  Pwl.intern_clear ();
  let z = Pwl.make [ (0., 0., 0.) ] in
  let bits f = Int64.bits_of_float (Pwl.value_at_zero f) in
  Alcotest.(check int64)
    "sum drops a rebuilt zero" (bits (Pwl.sum [ a; b; c ]))
    (bits (Pwl.sum [ a; z; b; c ]));
  let f = Pwl.make [ (0., -0., 1.); (1., 1., 0.) ] in
  Alcotest.(check int64) "add keeps -0." (Int64.bits_of_float (-0.)) (bits (Pwl.add z f));
  Alcotest.(check int64) "sub keeps -0." (Int64.bits_of_float (-0.)) (bits (Pwl.sub f z));
  let g = Pwl.make [ (0., -0., 1.); (1., 1., 0.) ] in
  check_bool "min_pw of equal content is its first operand" true (Pwl.min_pw f g == f)

let test_min_max_crossing () =
  let f = Pwl.affine ~y0:0. ~slope:2. in
  let g = token_bucket ~sigma:3. ~rho:1. in
  (* Cross at t = 3. *)
  let m = Pwl.min_pw f g in
  approx "min before" 2. (Pwl.eval m 1.);
  approx "min at crossing" 6. (Pwl.eval m 3.);
  approx "min after" 8. (Pwl.eval m 5.);
  let hi = Pwl.max_pw f g in
  approx "max before" 4. (Pwl.eval hi 1.);
  approx "max after" 10. (Pwl.eval hi 5.)

let test_nonneg () =
  let f = Pwl.affine ~y0:(-2.) ~slope:1. in
  let p = Pwl.nonneg f in
  approx "clipped" 0. (Pwl.eval p 1.);
  approx "above" 3. (Pwl.eval p 5.)

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let test_shift_left () =
  let f = rate_latency ~rate:2. ~latency:3. in
  let g = Pwl.shift_left f 1. in
  List.iter
    (fun t -> approx "shift_left" (Pwl.eval f (t +. 1.)) (Pwl.eval g t))
    [ 0.; 1.; 2.; 2.5; 4. ]

let test_shift_right () =
  let f = token_bucket ~sigma:2. ~rho:1. in
  let g = Pwl.shift_right f 2. in
  approx "before shift" 0. (Pwl.eval g 1.);
  approx "at shift" 2. (Pwl.eval g 2.);
  approx "after shift" 5. (Pwl.eval g 5.)

let test_compose () =
  let outer = rate_latency ~rate:1. ~latency:2. in
  let inner = Pwl.affine ~y0:1. ~slope:0.5 in
  let h = Pwl.compose ~outer ~inner in
  List.iter
    (fun t ->
      approx "compose" (Pwl.eval outer (Pwl.eval inner t)) (Pwl.eval h t))
    [ 0.; 1.; 2.; 3.; 5.; 10. ]

let test_pseudo_inverse_rate_latency () =
  let beta = rate_latency ~rate:2. ~latency:3. in
  let inv = Pwl.pseudo_inverse beta in
  (* Upper inverse: sup { x : beta x <= y }; beta is 0 until 3 then 2(t-3). *)
  approx "inv 0 (end of flat)" 3. (Pwl.eval inv 0.);
  approx "inv 2" 4. (Pwl.eval inv 2.);
  approx "inv 10" 8. (Pwl.eval inv 10.)

let test_pseudo_inverse_jump () =
  (* f with a jump at 2 from 2 to 5: the inverse is flat (= 2) on [2,5]. *)
  let f = Pwl.make [ (0., 0., 1.); (2., 5., 1.) ] in
  let inv = Pwl.pseudo_inverse f in
  approx "inv below jump" 1. (Pwl.eval inv 1.);
  approx "inv inside jump" 2. (Pwl.eval inv 3.5);
  approx "inv at top of jump" 2. (Pwl.eval inv 5.);
  approx "inv above" 3. (Pwl.eval inv 6.)

(* ------------------------------------------------------------------ *)
(* Suprema and crossings                                               *)
(* ------------------------------------------------------------------ *)

let test_sup_diff () =
  let f = token_bucket ~sigma:4. ~rho:0.5 in
  let line = Pwl.affine ~y0:0. ~slope:1. in
  (* sup (4 + 0.5 t - t) = 4 at t = 0. *)
  approx "sup at 0" 4. (Pwl.sup_diff f line);
  let steep = Pwl.affine ~y0:0. ~slope:2. in
  approx "unbounded" infinity (Pwl.sup_diff steep line)

let test_first_crossing_below () =
  let g = token_bucket ~sigma:2. ~rho:0.5 in
  (* 2 + 0.5 t = t  =>  t = 4. *)
  approx "busy period" 4. (Pwl.first_crossing_below g ~rate:1.);
  approx "unstable" infinity (Pwl.first_crossing_below g ~rate:0.5);
  approx "zero burst" 0.
    (Pwl.first_crossing_below (Pwl.affine ~y0:0. ~slope:0.2) ~rate:1.)

let test_sup_on () =
  let f = Pwl.make [ (0., 0., 2.); (1., 2., -1.) ] in
  approx "peak inside" 2. (Pwl.sup_on f ~lo:0. ~hi:3.);
  approx "window before peak" 1. (Pwl.sup_on f ~lo:0. ~hi:0.5);
  approx "window after peak" 1.5 (Pwl.sup_on f ~lo:1.5 ~hi:4.)

(* ------------------------------------------------------------------ *)
(* Min-plus operations                                                 *)
(* ------------------------------------------------------------------ *)

let test_conv_concave_is_min () =
  let f = token_bucket ~sigma:1. ~rho:2. in
  let g = Pwl.affine ~y0:0. ~slope:3. in
  let c = Minplus.conv f g in
  List.iter
    (fun t ->
      approx "conv = min" (Float.min (Pwl.eval f t) (Pwl.eval g t))
        (Pwl.eval c t))
    [ 0.; 0.2; 1.; 5. ]

let test_conv_rate_latency () =
  (* beta_{R1,T1} (x) beta_{R2,T2} = beta_{min R, T1+T2}. *)
  let b1 = rate_latency ~rate:2. ~latency:1. in
  let b2 = rate_latency ~rate:1. ~latency:3. in
  let c = Minplus.conv b1 b2 in
  let expect = rate_latency ~rate:1. ~latency:4. in
  Alcotest.(check bool) "rate-latency composition" true (Pwl.equal c expect)

let test_conv_convex_general () =
  (* Brute-force check of the convex convolution on a small grid. *)
  let b1 = Minplus.conv_list
      [ rate_latency ~rate:2. ~latency:1.; rate_latency ~rate:5. ~latency:0.5 ]
  in
  let b2 = rate_latency ~rate:3. ~latency:0.2 in
  let c = Minplus.conv b1 b2 in
  let brute t =
    let n = 2000 in
    let best = ref infinity in
    for i = 0 to n do
      let s = t *. float_of_int i /. float_of_int n in
      best := Float.min !best (Pwl.eval b1 s +. Pwl.eval b2 (t -. s))
    done;
    !best
  in
  List.iter
    (fun t -> approx ~tol:1e-3 "convex conv vs brute force" (brute t) (Pwl.eval c t))
    [ 0.5; 1.; 2.; 3.; 6.; 12. ]

let test_deconv_token_bucket_rate_latency () =
  (* alpha (/) beta_{R,T} for alpha = sigma + rho t is sigma + rho (t + T):
     the output burst grows by rho * T. *)
  let alpha = token_bucket ~sigma:2. ~rho:1. in
  let beta = rate_latency ~rate:3. ~latency:2. in
  let out = Minplus.deconv alpha beta in
  let expect = token_bucket ~sigma:4. ~rho:1. in
  Alcotest.(check bool) "output envelope" true (Pwl.equal out expect)

let test_deconv_unstable () =
  let alpha = token_bucket ~sigma:1. ~rho:2. in
  let beta = rate_latency ~rate:1. ~latency:0. in
  (try
     ignore (Minplus.deconv alpha beta);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Deviations                                                          *)
(* ------------------------------------------------------------------ *)

let test_hdev_classic () =
  (* Token bucket vs rate-latency: D = T + sigma / R. *)
  let alpha = token_bucket ~sigma:3. ~rho:1. in
  let beta = rate_latency ~rate:2. ~latency:1.5 in
  approx "hdev" (1.5 +. (3. /. 2.)) (Deviation.hdev ~alpha ~beta);
  approx "vdev" (3. +. (1. *. 1.5)) (Deviation.vdev ~alpha ~beta)

let test_hdev_unstable () =
  let alpha = token_bucket ~sigma:1. ~rho:3. in
  let beta = rate_latency ~rate:2. ~latency:0. in
  approx "unstable hdev" infinity (Deviation.hdev ~alpha ~beta)

let test_vdev_equal_final_slope () =
  (* Limit case: token bucket vs rate-latency at the {e same} rate.
     The difference is constant (= sigma + rho T) past the last merged
     breakpoint; the supremum must be that constant, not infinity and
     not the value at 0. *)
  let alpha = token_bucket ~sigma:1. ~rho:0.5 in
  let beta = rate_latency ~rate:0.5 ~latency:4. in
  approx "sup_diff at equal final slopes" 3. (Pwl.sup_diff alpha beta);
  approx "vdev = sigma + rho T" 3. (Deviation.vdev ~alpha ~beta);
  (* An epsilon-slower server tips it over to unbounded. *)
  let beta' = rate_latency ~rate:0.499 ~latency:4. in
  approx "slower server unbounded" infinity (Deviation.vdev ~alpha ~beta:beta')

let test_delay_fifo_aggregate () =
  let agg = token_bucket ~sigma:4. ~rho:0.5 in
  approx "fifo delay" 4. (Deviation.delay_fifo_aggregate ~agg ~rate:1.);
  approx "fifo delay scaled" 2. (Deviation.delay_fifo_aggregate ~agg ~rate:2.);
  approx "unstable" infinity (Deviation.delay_fifo_aggregate ~agg ~rate:0.5)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let prop_min_below_both =
  qtest "min_pw is below both operands"
    QCheck2.Gen.(triple gen_concave gen_concave gen_time)
    (fun (f, g, t) ->
      let m = Pwl.eval (Pwl.min_pw f g) t in
      m <= Pwl.eval f t +. 1e-6 && m <= Pwl.eval g t +. 1e-6)

let prop_add_pointwise =
  qtest "add is pointwise sum"
    QCheck2.Gen.(triple gen_concave gen_convex gen_time)
    (fun (f, g, t) ->
      let s = Pwl.eval (Pwl.add f g) t in
      Float.abs (s -. (Pwl.eval f t +. Pwl.eval g t)) <= 1e-6 *. Float.max 1. s)

let prop_conv_commutative =
  qtest "convex convolution commutes"
    QCheck2.Gen.(pair gen_convex gen_convex)
    (fun (f, g) -> Pwl.equal (Minplus.conv f g) (Minplus.conv g f))

let prop_conv_below_operand =
  qtest "f (x) g <= f (when g 0 = 0)"
    QCheck2.Gen.(triple gen_convex gen_convex gen_time)
    (fun (f, g, t) ->
      Pwl.eval (Minplus.conv f g) t <= Pwl.eval f t +. 1e-6)

let prop_deconv_dominates =
  qtest "alpha (/) beta >= alpha (when beta 0 = 0)"
    QCheck2.Gen.(triple gen_concave gen_convex gen_time)
    (fun (alpha, beta, t) ->
      QCheck2.assume (Pwl.final_slope alpha <= Pwl.final_slope beta -. 1e-6);
      Pwl.eval (Minplus.deconv alpha beta) t >= Pwl.eval alpha t -. 1e-6)

let prop_hdev_token_bucket_formula =
  qtest "hdev(token bucket, rate-latency) = T + sigma/R"
    QCheck2.Gen.(quad gen_burst gen_rate gen_rate gen_latency)
    (fun (sigma, rho, rate, latency) ->
      QCheck2.assume (rho <= rate -. 1e-3);
      let alpha = token_bucket ~sigma ~rho in
      let beta = rate_latency ~rate ~latency in
      let d = Deviation.hdev ~alpha ~beta in
      Float.abs (d -. (latency +. (sigma /. rate))) <= 1e-6 *. Float.max 1. d)

let prop_inverse_roundtrip =
  qtest "f (f^{-1} y) >= y for increasing f"
    QCheck2.Gen.(pair gen_concave (QCheck2.Gen.float_range 0. 50.))
    (fun (f, y) ->
      QCheck2.assume (Pwl.final_slope f > 1e-3);
      let inv = Pwl.pseudo_inverse f in
      Pwl.eval f (Pwl.eval inv y) >= Float.min y (Pwl.eval f 0.) -. 1e-6)

let prop_busy_period_is_crossing =
  qtest "aggregate is below the line just after the busy period"
    QCheck2.Gen.(pair gen_concave gen_rate)
    (fun (agg, rate) ->
      QCheck2.assume (Pwl.final_slope agg < rate -. 1e-3);
      let b = Pwl.first_crossing_below agg ~rate in
      Float.is_finite b
      && Pwl.eval agg (b +. 1e-6) <= (rate *. (b +. 1e-6)) +. 1e-4)

(* Past 2^53 neighbouring floats are 2 apart, and (1e16 + 2) + 1 rounds
   up onto 1e16 + 4: tail probes at x + 1 and x + 2 would coincide and
   divide by zero. *)
let test_of_sampler_far_candidate () =
  let f =
    Pwl.of_sampler ~candidates:[ 0.; 1e16 +. 2. ] ~eval:(fun t -> 0.5 *. t)
  in
  List.iter (fun (_, _, slope) -> approx "slope" 0.5 slope) (Pwl.segments f)

let suite =
  ( "pwl",
    [
      test "eval basic" test_eval_basic;
      test "eval jump" test_eval_jump;
      test "make validation" test_make_validation;
      test "normalize collinear" test_normalize_collinear;
      test "shape classification" test_shape;
      test "add/sub/scale" test_add_sub_scale;
      test "min/max with crossing" test_min_max_crossing;
      test "nonneg" test_nonneg;
      test "shift_left" test_shift_left;
      test "shift_right" test_shift_right;
      test "compose" test_compose;
      test "pseudo-inverse of rate-latency" test_pseudo_inverse_rate_latency;
      test "pseudo-inverse across a jump" test_pseudo_inverse_jump;
      test "sup_diff" test_sup_diff;
      test "first_crossing_below" test_first_crossing_below;
      test "sup_on" test_sup_on;
      test "conv concave = min" test_conv_concave_is_min;
      test "conv rate-latency" test_conv_rate_latency;
      test "conv convex vs brute force" test_conv_convex_general;
      test "deconv token bucket / rate-latency"
        test_deconv_token_bucket_rate_latency;
      test "deconv unstable rejected" test_deconv_unstable;
      test "hdev classic formula" test_hdev_classic;
      test "hdev unstable" test_hdev_unstable;
      test "vdev at equal final slopes" test_vdev_equal_final_slope;
      test "delay_fifo_aggregate" test_delay_fifo_aggregate;
      prop_min_below_both;
      prop_add_pointwise;
      prop_conv_commutative;
      prop_conv_below_operand;
      prop_deconv_dominates;
      prop_hdev_token_bucket_formula;
      prop_inverse_roundtrip;
      prop_busy_period_is_crossing;
      test "sum: neutral cases" test_sum_neutral;
      test "sum: 2000-curve hub is one construction" test_sum_hub;
      test "sum/add: zero operands found by content" test_zero_by_content;
      test "pwl.segments metrics record workload" test_segment_metrics;
      test "of_sampler past 2^53" test_of_sampler_far_candidate;
    ] )
