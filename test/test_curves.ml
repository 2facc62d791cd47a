(* Tests for arrival and service curve constructors. *)

open Testutil

let test_token_bucket () =
  let a = Arrival.token_bucket ~sigma:2. ~rho:0.5 () in
  approx "burst" 2. (Arrival.burst a);
  approx "rate" 0.5 (Arrival.rate a);
  approx "eval" 4.5 (Arrival.eval a 5.)

let test_paper_source () =
  (* b I = min { I, sigma + rho I } (Eq. 4): peak-clipped near 0. *)
  let a = Arrival.paper_source ~sigma:1. ~rho:0.25 in
  approx "at 0" 0. (Arrival.eval a 0.);
  approx "clipped" 0.5 (Arrival.eval a 0.5);
  approx "crossing" (1. +. (0.25 *. (4. /. 3.))) (Arrival.eval a (4. /. 3.));
  approx "beyond" (1. +. (0.25 *. 10.)) (Arrival.eval a 10.)

let test_multi () =
  let a =
    Arrival.make
      (Arrival.Multi
         [
           Arrival.Token_bucket { sigma = 1.; rho = 1.; peak = infinity };
           Arrival.Token_bucket { sigma = 4.; rho = 0.25; peak = infinity };
         ])
  in
  approx "small t uses tight bucket" 2. (Arrival.eval a 1.);
  approx "large t uses slow bucket" 6.5 (Arrival.eval a 10.);
  approx "long-run rate" 0.25 (Arrival.rate a)

let test_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Arrival.token_bucket ~sigma:(-1.) ~rho:1. ());
  expect_invalid (fun () -> Arrival.token_bucket ~peak:0.5 ~sigma:1. ~rho:1. ());
  expect_invalid (fun () -> Arrival.make (Arrival.Multi []));
  expect_invalid (fun () ->
      Arrival.of_curve (rate_latency ~rate:1. ~latency:1.))

let test_token_params () =
  let sigma, rho, peak =
    Arrival.token_params (Arrival.paper_source ~sigma:1. ~rho:0.25)
  in
  approx "sigma" 1. sigma;
  approx "rho" 0.25 rho;
  approx "peak" 1. peak;
  let s2, r2, p2 =
    Arrival.token_params (Arrival.token_bucket ~sigma:2. ~rho:0.5 ())
  in
  approx "pure sigma" 2. s2;
  approx "pure rho" 0.5 r2;
  approx "pure peak" infinity p2

let test_rate_latency_service () =
  let b = Service.rate_latency ~rate:2. ~latency:3. in
  approx "before latency" 0. (Pwl.eval b 2.);
  approx "after latency" 4. (Pwl.eval b 5.);
  check_bool "valid service curve" true (Service.is_service_curve b)

let test_leftover () =
  (* (C t - cross)^+ with cross = 2 + 0.5 t at C = 1:
     zero until 4, then slope 0.5. *)
  let cross = Pwl.affine ~y0:2. ~slope:0.5 in
  let b = Service.leftover ~rate:1. ~cross in
  approx "still zero" 0. (Pwl.eval b 4.);
  approx "after" 1. (Pwl.eval b 6.);
  check_bool "valid service curve" true (Service.is_service_curve b)

let test_fifo_theta_family () =
  (* Token-bucket cross (sigma_c, rho_c) at theta = sigma_c / C gives
     exactly the rate-latency curve (C - rho_c, sigma_c / C). *)
  let cross = Pwl.affine ~y0:2. ~slope:0.25 in
  let b = Service.fifo_theta ~rate:1. ~cross ~theta:2. in
  let expect = rate_latency ~rate:0.75 ~latency:2. in
  check_bool "theta* member is rate-latency" true (Pwl.equal b expect);
  (* theta = 0 recovers the leftover curve. *)
  check_bool "theta=0 is leftover" true
    (Pwl.equal
       (Service.fifo_theta ~rate:1. ~cross ~theta:0.)
       (Service.leftover ~rate:1. ~cross))

let prop_fifo_theta_dominates_leftover =
  qtest "fifo_theta at theta* dominates leftover"
    QCheck2.Gen.(triple gen_burst gen_rate gen_time)
    (fun (sigma_c, rho_c, t) ->
      QCheck2.assume (rho_c < 0.95);
      let cross = Pwl.affine ~y0:sigma_c ~slope:rho_c in
      let lo = Service.leftover ~rate:1. ~cross in
      let th = Service.fifo_theta ~rate:1. ~cross ~theta:sigma_c in
      Pwl.eval th t >= Pwl.eval lo t -. 1e-6)

let prop_leftover_is_convex_service =
  qtest "leftover curves are valid service curves" gen_concave (fun cross ->
      Service.is_service_curve (Service.leftover ~rate:2. ~cross))

let test_rejects_decreasing_envelope () =
  let decreasing = Pwl.make [ (0., 5., -1.); (5., 0., 0.) ] in
  try
    ignore (Arrival.of_curve decreasing);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()


let suite =
  ( "curves",
    [
      test "token bucket" test_token_bucket;
      test "paper source (Eq. 4)" test_paper_source;
      test "multi leaky bucket" test_multi;
      test "validation" test_validation;
      test "rejects decreasing envelopes" test_rejects_decreasing_envelope;
      test "token_params extraction" test_token_params;
      test "rate-latency service" test_rate_latency_service;
      test "leftover service" test_leftover;
      test "fifo-theta family" test_fifo_theta_family;
      prop_fifo_theta_dominates_leftover;
      prop_leftover_is_convex_service;
    ] )
