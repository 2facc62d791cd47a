(* Tests for the UPP (ultimately pseudo-periodic) curve library:

   - closed forms and eval/unroll agreement for periodic curves;
   - normalization idempotence;
   - the algebra on the eventually-affine path is bit-identical to the
     Minplus kernels (same hash-consed values), qcheck'd on the
     token-bucket / rate-latency families;
   - the windowed periodic kernels agree with an independent
     brute-force inf/sup over the exact candidate set;
   - horizon independence: the upp representation of a smoothed
     staircase keeps a constant segment count where the unrolled pwl
     result grows linearly with the horizon;
   - the namespaced Minplus result cache cannot conflate upp window
     results with pwl kernel entries;
   - the pwl.segments.{total,max} metrics record curve workload. *)

open Testutil

let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

(* Sample points that avoid sitting exactly on jump points, where
   right-continuous evaluation makes equality boundary-sensitive. *)
let off_grid ~hi n =
  List.init n (fun i -> ((float_of_int i +. 0.37) *. hi) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Closed forms, eval vs unroll, normalization                         *)
(* ------------------------------------------------------------------ *)

let test_staircase_closed_form () =
  let u = Upp.staircase ~step:2. ~interval:0.5 in
  Alcotest.(check int) "one stored segment" 1 (Upp.segment_count u);
  List.iter
    (fun t ->
      let expect = 2. *. (1. +. Float.of_int (int_of_float (t /. 0.5))) in
      approx (Printf.sprintf "staircase at %g" t) expect (Upp.eval u t))
    [ 0.1; 0.4; 0.7; 1.2; 5.3; 1000.2; 123456.7 ]

let gen_periodic =
  QCheck2.Gen.(
    let* rank = float_range 0.2 2. in
    let* period = float_range 0.2 2. in
    let* y0 = float_range 0. 2. in
    let* s0 = float_range 0. 2. in
    let* y1 = float_range 0. 2. in
    let* increment = float_range 0.1 3. in
    return
      (Upp.make ~rank ~period ~increment
         [ (0., y0, s0); (rank, y0 +. (s0 *. rank) +. y1, 0.) ]))

let prop_eval_matches_unroll =
  qtest ~count:300 "eval agrees with unroll on a dense grid" gen_periodic
    (fun u ->
      let hi = Upp.rank u +. (6. *. Upp.period u) in
      let w = Upp.unroll u ~horizon:hi in
      List.for_all (fun t -> close (Upp.eval u t) (Pwl.eval w t)) (off_grid ~hi 97))

let prop_normalize_idempotent =
  qtest ~count:300 "constructors normalize; normalize is idempotent"
    gen_periodic (fun u ->
      Upp.compare u (Upp.normalize u) = 0
      && Upp.compare (Upp.normalize u) (Upp.normalize (Upp.normalize u)) = 0)

let test_affine_tail_collapse () =
  (* A "periodic" law that just continues the final slope collapses to
     the eventually-affine representation. *)
  let u = Upp.make ~rank:1. ~period:1. ~increment:2. [ (0., 0., 2.) ] in
  check_bool "collapsed" true (Upp.is_affine_tail u);
  approx "rate" 2. (Upp.rate u)

(* ------------------------------------------------------------------ *)
(* Eventually-affine path: bit-identical to the Minplus kernels        *)
(* ------------------------------------------------------------------ *)

let prop_affine_conv_bit_identical =
  qtest ~count:300 "conv on affine tails = Minplus.conv, and commutes"
    QCheck2.Gen.(pair gen_concave gen_concave)
    (fun (f, g) ->
      let uf = Upp.of_pwl f and ug = Upp.of_pwl g in
      let r = Upp.to_pwl (Upp.conv uf ug) in
      Pwl.equal r (Minplus.conv f g)
      && Pwl.equal r (Upp.to_pwl (Upp.conv ug uf)))

let prop_affine_conv_associative =
  qtest ~count:200 "conv is associative on the token-bucket family"
    QCheck2.Gen.(triple gen_concave gen_concave gen_concave)
    (fun (f, g, h) ->
      let u = Upp.of_pwl in
      Pwl.equal
        (Upp.to_pwl (Upp.conv (Upp.conv (u f) (u g)) (u h)))
        (Upp.to_pwl (Upp.conv (u f) (Upp.conv (u g) (u h)))))

let prop_affine_deconv_residuation =
  qtest ~count:200 "deconv = Minplus.deconv and satisfies residuation"
    QCheck2.Gen.(pair gen_concave gen_convex)
    (fun (f, g) ->
      QCheck2.assume (Pwl.final_slope f <= Pwl.final_slope g);
      let h = Upp.to_pwl (Upp.deconv (Upp.of_pwl f) (Upp.of_pwl g)) in
      Pwl.equal h (Minplus.deconv f g)
      (* h t >= f (t + u) - g u for all u >= 0: h is an upper
         residuation of f by g. *)
      && List.for_all
           (fun t ->
             List.for_all
               (fun u ->
                 Pwl.eval h t +. 1e-6
                 >= Pwl.eval f (t +. u) -. Pwl.eval g u)
               (off_grid ~hi:20. 23))
           (off_grid ~hi:10. 19))

(* ------------------------------------------------------------------ *)
(* Periodic kernels vs brute force                                     *)
(* ------------------------------------------------------------------ *)

(* Independent reference for the envelope-convention convolution of two
   finite curves: the inf over s of fw s + gw (t - s) is attained at a
   breakpoint of fw, at t minus a breakpoint of gw, or at an interval
   end (including left limits at jumps), because the slope of the
   section s -> fw s + gw (t - s) only changes there. *)
let brute_conv fw gw t =
  let cands = ref [ 0.; t ] in
  List.iter
    (fun b -> if b > 0. && b < t then cands := b :: !cands)
    (Pwl.breakpoints fw);
  List.iter
    (fun b ->
      let s = t -. b in
      if s > 0. && s < t then cands := s :: !cands)
    (Pwl.breakpoints gw);
  List.fold_left
    (fun acc s ->
      let u = t -. s in
      let v =
        Float.min
          (Pwl.eval fw s +. Pwl.eval gw u)
          (Float.min
             (Pwl.eval_left fw s +. Pwl.eval gw u)
             (Pwl.eval fw s +. Pwl.eval_left gw u))
      in
      Float.min acc v)
    (Float.min (Pwl.eval fw t) (Pwl.eval gw t))
    !cands

let test_periodic_conv_with_rate_matches_minplus () =
  let stair = Upp.staircase ~step:1. ~interval:1. in
  let r = Upp.conv_with_rate ~rate:1.5 stair in
  check_bool "genuinely periodic result" true (not (Upp.is_affine_tail r));
  let reference =
    Minplus.conv_with_rate ~rate:1.5 (Upp.unroll stair ~horizon:64.)
  in
  List.iter
    (fun t ->
      approx
        (Printf.sprintf "smoothed staircase at %g" t)
        (Pwl.eval reference t) (Upp.eval r t))
    (off_grid ~hi:64. 257)

let test_periodic_conv_matches_bruteforce () =
  let s1 = Upp.staircase ~step:1. ~interval:1. in
  let s2 = Upp.staircase ~step:0.5 ~interval:0.5 in
  let c = Upp.conv s1 s2 in
  let fw = Upp.unroll s1 ~horizon:32. and gw = Upp.unroll s2 ~horizon:32. in
  List.iter
    (fun t ->
      approx
        (Printf.sprintf "staircase conv at %g" t)
        (brute_conv fw gw t) (Upp.eval c t))
    (off_grid ~hi:24. 193);
  (* Commutativity on the periodic path. *)
  let c' = Upp.conv s2 s1 in
  List.iter
    (fun t -> approx "periodic conv commutes" (Upp.eval c t) (Upp.eval c' t))
    (off_grid ~hi:24. 193)

let test_periodic_add_min () =
  let s1 = Upp.staircase ~step:1. ~interval:1. in
  let s2 = Upp.staircase ~step:0.5 ~interval:0.5 in
  let a = Upp.add s1 s2 and m = Upp.min_pw s1 s2 in
  List.iter
    (fun t ->
      approx "pointwise sum" (Upp.eval s1 t +. Upp.eval s2 t) (Upp.eval a t);
      approx "pointwise min"
        (Float.min (Upp.eval s1 t) (Upp.eval s2 t))
        (Upp.eval m t))
    (off_grid ~hi:20. 157)

let test_periodic_deconv_is_sup () =
  (* Output envelope of a staircase through a rate-1.5 server:
     sup_{u >= 0} f (t + u) - g u, f periodic.  Lower-bounded by every
     candidate u, and attained on the candidate set (breakpoints of f
     shifted under t, plus 0). *)
  let f = Upp.staircase ~step:1. ~interval:1. in
  let g = Upp.of_pwl (Pwl.affine ~y0:0. ~slope:1.5) in
  let h = Upp.deconv f g in
  let fw = Upp.unroll f ~horizon:128. in
  let sup_ref t =
    let cands =
      0.
      :: List.concat_map
           (fun b ->
             let u = b -. t in
             if u > 0. && t +. u <= 128. then [ u; u +. 1e-9 ] else [])
           (Pwl.breakpoints fw)
    in
    List.fold_left
      (fun acc u ->
        Float.max acc
          (Float.max
             (Pwl.eval fw (t +. u) -. (1.5 *. u))
             (Pwl.eval_left fw (t +. u) -. (1.5 *. u))))
      neg_infinity cands
  in
  List.iter
    (fun t ->
      approx ~tol:1e-6
        (Printf.sprintf "deconv at %g" t)
        (sup_ref t) (Upp.eval h t))
    (off_grid ~hi:16. 101)

(* ------------------------------------------------------------------ *)
(* Horizon independence                                                *)
(* ------------------------------------------------------------------ *)

let test_horizon_independent_size () =
  let stair = Upp.staircase ~step:1. ~interval:1. in
  let upp_r = Upp.conv_with_rate ~rate:1.5 stair in
  check_bool "upp result is small" true (Upp.segment_count upp_r <= 4);
  let pwl_sizes =
    List.map
      (fun h ->
        let horizon = float_of_int h in
        let r = Minplus.conv_with_rate ~rate:1.5 (Upp.unroll stair ~horizon) in
        (* Same function, sampled. *)
        List.iter
          (fun t -> approx "backends agree" (Pwl.eval r t) (Upp.eval upp_r t))
          (off_grid ~hi:horizon 61);
        List.length (Pwl.segments r))
      [ 64; 512; 4096 ]
  in
  (match pwl_sizes with
  | [ a; b; c ] ->
      check_bool "pwl result grows with the horizon" true (a < b && b < c);
      check_bool "pwl result is horizon-sized" true (c >= 4096)
  | _ -> assert false);
  check_bool "upp result did not grow" true (Upp.segment_count upp_r <= 4)

(* ------------------------------------------------------------------ *)
(* Cache namespacing                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_namespacing () =
  let was = Minplus.cache_enabled () in
  Minplus.set_cache_enabled true;
  Fun.protect ~finally:(fun () -> Minplus.set_cache_enabled was)
  @@ fun () ->
  Minplus.cache_clear ();
  let f = Pwl.affine ~y0:1.25 ~slope:1.125 in
  let g = Pwl.affine ~y0:2.5 ~slope:0.625 in
  let a = Pwl.constant 1. and b = Pwl.constant 2. in
  (* Same operand pair, different namespaces: must not conflate. *)
  let r1 = Minplus.cached_op `Conv ~ns:11 f g (fun () -> a) in
  let r2 = Minplus.cached_op `Conv ~ns:22 f g (fun () -> b) in
  check_bool "first namespace stores its result" true (Pwl.equal r1 a);
  check_bool "second namespace misses the first" true (Pwl.equal r2 b);
  (* Same namespace, same operands: hit (compute not consulted). *)
  let r1' = Minplus.cached_op `Conv ~ns:11 f g (fun () -> b) in
  check_bool "same namespace hits" true (Pwl.equal r1' a);
  (* Conv and deconv namespaces are distinct caches. *)
  let r3 = Minplus.cached_op `Deconv ~ns:11 f g (fun () -> b) in
  check_bool "deconv cache is separate" true (Pwl.equal r3 b);
  (* Namespace 0 is reserved for the pwl kernel itself. *)
  (try
     ignore (Minplus.cached_op `Conv ~ns:0 f g (fun () -> a));
     Alcotest.fail "namespace 0 must be rejected"
   with Invalid_argument _ -> ());
  (* End to end: a kernel-level conv of the same operand pair must not
     be served one of the namespaced entries. *)
  let kernel = Minplus.conv f g in
  check_bool "kernel result is computed, not conflated" true
    ((not (Pwl.equal kernel a)) && not (Pwl.equal kernel b))

(* ------------------------------------------------------------------ *)
(* Segment metrics                                                     *)
(* ------------------------------------------------------------------ *)

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

let suite =
  ( "upp",
    [
      test "staircase closed form" test_staircase_closed_form;
      prop_eval_matches_unroll;
      prop_normalize_idempotent;
      test "affine-continuation law collapses" test_affine_tail_collapse;
      prop_affine_conv_bit_identical;
      prop_affine_conv_associative;
      prop_affine_deconv_residuation;
      test "conv_with_rate on a staircase matches Minplus"
        test_periodic_conv_with_rate_matches_minplus;
      test "periodic conv matches brute force"
        test_periodic_conv_matches_bruteforce;
      test "periodic add/min are pointwise" test_periodic_add_min;
      test "periodic deconv is the exact sup" test_periodic_deconv_is_sup;
      test "upp size is horizon-independent" test_horizon_independent_size;
      test "result cache cannot conflate backends" test_cache_namespacing;
      test "pwl.segments metrics record workload" test_segment_metrics;
    ] )
