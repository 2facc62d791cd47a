(* Edge cases across the library: degenerate networks, unsupported
   shapes, boundary parameters, engine dispatch. *)

open Testutil

let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.1 ()

(* ------------------------------------------------------------------ *)
(* Degenerate networks                                                 *)
(* ------------------------------------------------------------------ *)

let test_empty_network () =
  let net = Network.make ~servers:[] ~flows:[] in
  Alcotest.(check int) "size" 0 (Network.size net);
  check_bool "feedforward" true (Network.is_feedforward net);
  check_bool "stable" true (Network.stable net);
  let a = Decomposed.analyze net in
  Alcotest.(check (list (pair int (float 1e-9)))) "no flows" []
    (Decomposed.all_flow_delays a)

let test_single_server_single_flow () =
  let net =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. () ]
      ~flows:[ Flow.make ~id:0 ~arrival ~route:[ 0 ] () ]
  in
  let d = Decomposed.flow_delay (Decomposed.analyze net) 0 in
  approx "single hop burst" 1. d;
  let i = Integrated.flow_delay (Integrated.analyze net) 0 in
  approx "integrated single hop" 1. i;
  let sc = Service_curve_method.flow_delay
      (Service_curve_method.analyze (Decomposed.analyze net))
      0 in
  approx "sfa single hop (no cross)" 1. sc

let test_flow_with_zero_rate () =
  (* A pure burst source (rho = 0) drains and bounds stay finite. *)
  let f =
    Flow.make ~id:0
      ~arrival:(Arrival.token_bucket ~sigma:2. ~rho:0. ())
      ~route:[ 0; 1 ] ()
  in
  let net =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. (); Server.make ~id:1 ~rate:1. () ]
      ~flows:[ f ]
  in
  let d = Decomposed.flow_delay (Decomposed.analyze net) 0 in
  check_bool "finite" true (Float.is_finite d);
  let i =
    Integrated.flow_delay
      (Integrated.analyze ~strategy:(Pairing.Along_route 0) net)
      0
  in
  approx "integrated pays the burst once" 2. i

let test_exact_capacity_is_unstable () =
  (* rho exactly equal to the rate: bounds must be infinite (the
     busy period never closes). *)
  let f =
    Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:1. ())
      ~route:[ 0 ] ()
  in
  let net =
    Network.make ~servers:[ Server.make ~id:0 ~rate:1. () ] ~flows:[ f ]
  in
  approx "at capacity" infinity (Decomposed.flow_delay (Decomposed.analyze net) 0)

(* ------------------------------------------------------------------ *)
(* Pairing corner cases                                                *)
(* ------------------------------------------------------------------ *)

let test_pairing_odd_route () =
  (* 3-hop route: one pair + one singleton along the route. *)
  let net =
    Network.make
      ~servers:(List.init 3 (fun id -> Server.make ~id ~rate:1. ()))
      ~flows:[ Flow.make ~id:0 ~arrival ~route:[ 0; 1; 2 ] () ]
  in
  let p = Pairing.build net (Pairing.Along_route 0) in
  check_bool "pair + singleton" true
    (List.mem (Pairing.Pair (0, 1)) p && List.mem (Pairing.Single 2) p);
  (* Pay the burst once in the pair (sigma = 1), then the pair-delay-
     inflated burst once more in the singleton (1 + rho * 1 = 1.1). *)
  approx "bound" 2.1
    (Integrated.flow_delay (Integrated.analyze_with_pairing net p) 0)

let test_pair_with_no_transit () =
  (* A pair whose servers share no flow is rejected (no u -> v edge). *)
  let net =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. (); Server.make ~id:1 ~rate:1. () ]
      ~flows:
        [
          Flow.make ~id:0 ~arrival ~route:[ 0 ] ();
          Flow.make ~id:1 ~arrival ~route:[ 1 ] ();
        ]
  in
  try
    Pairing.validate net [ Pairing.Pair (0, 1) ];
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_greedy_on_disconnected () =
  let net =
    Network.make
      ~servers:(List.init 4 (fun id -> Server.make ~id ~rate:1. ()))
      ~flows:
        [
          Flow.make ~id:0 ~arrival ~route:[ 0; 1 ] ();
          Flow.make ~id:1 ~arrival ~route:[ 2; 3 ] ();
        ]
  in
  let p = Pairing.build net Pairing.Greedy in
  Pairing.validate net p;
  check_bool "pairs both components" true
    (List.mem (Pairing.Pair (0, 1)) p && List.mem (Pairing.Pair (2, 3)) p)

(* ------------------------------------------------------------------ *)
(* Curve algebra corners                                               *)
(* ------------------------------------------------------------------ *)

let test_conv_rejects_general_shape () =
  let zigzag = Pwl.make [ (0., 0., 3.); (1., 3., 0.5); (2., 3.5, 2.) ] in
  check_bool "zigzag classified general" true (Pwl.shape zigzag = `General);
  try
    ignore (Minplus.conv zigzag zigzag);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_sup_on_unbounded () =
  approx "positive slope to infinity" infinity
    (Pwl.sup_on (Pwl.affine ~y0:0. ~slope:1.) ~lo:0. ~hi:infinity);
  approx "negative slope to infinity" 5.
    (Pwl.sup_on (Pwl.affine ~y0:5. ~slope:(-1.)) ~lo:0. ~hi:infinity)

let test_scale_zero () =
  let f = Pwl.affine ~y0:3. ~slope:2. in
  check_bool "zero scale" true (Pwl.equal (Pwl.scale 0. f) Pwl.zero)

let test_shift_by_zero_identity () =
  let f = Pwl.affine ~y0:1. ~slope:0.5 in
  check_bool "shift_left 0" true (Pwl.equal (Pwl.shift_left f 0.) f);
  check_bool "shift_right 0" true (Pwl.equal (Pwl.shift_right f 0.) f)

(* ------------------------------------------------------------------ *)
(* Engine dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_all_methods_on_tandem () =
  let t = Tandem.make ~n:2 ~utilization:0.4 () in
  List.iter
    (fun m ->
      let d =
        Engine.flow_delay
          (Engine.analyze ~strategy:(Pairing.Along_route 0) t.network m)
          0
      in
      check_bool (Engine.method_name m ^ " finite") true (Float.is_finite d);
      check_bool (Engine.method_name m ^ " positive") true (d > 0.))
    Engine.all_methods

let test_relative_improvement_corners () =
  check_bool "nan on infinity" true
    (Float.is_nan (Engine.relative_improvement infinity 3.));
  check_bool "nan on zero base" true
    (Float.is_nan (Engine.relative_improvement 0. 3.));
  approx "negative when worse" (-0.5) (Engine.relative_improvement 2. 3.)

let test_fifo_theta_thetas_accessor () =
  let t = Tandem.make ~n:3 ~utilization:0.6 () in
  let a = Fifo_theta.analyze (Decomposed.analyze t.network) in
  let thetas = Fifo_theta.thetas a ~flow:0 in
  Alcotest.(check int) "one theta per hop" 3 (List.length thetas);
  List.iter (fun th -> check_bool "nonnegative" true (th >= 0.)) thetas

(* ------------------------------------------------------------------ *)
(* Simulator corners                                                   *)
(* ------------------------------------------------------------------ *)

let test_sim_no_emissions () =
  (* Horizon 0 with a start offset: nothing is emitted or delivered. *)
  let f = Flow.make ~id:0 ~arrival ~route:[ 0 ] () in
  let net =
    Network.make ~servers:[ Server.make ~id:0 ~rate:1. () ] ~flows:[ f ]
  in
  let res =
    Sim.run
      ~config:
        {
          Sim.default_config with
          horizon = 1.;
          models = [ (0, Source.Greedy { start = 5. }) ];
        }
      net
  in
  Alcotest.(check int) "nothing delivered" 0 (Sim.packets_delivered res);
  approx "no delay recorded" 0. (Sim.max_delay res 0)

let test_source_rejects_oversized_packet () =
  try
    ignore
      (Source.emission_times (Greedy { start = 0. }) ~sigma:1. ~rho:0.5
         ~peak:infinity ~packet_size:2. ~horizon:10.);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let suite =
  ( "edge-cases",
    [
      test "empty network" test_empty_network;
      test "single server, single flow" test_single_server_single_flow;
      test "zero-rate (pure burst) flow" test_flow_with_zero_rate;
      test "exact capacity is unstable" test_exact_capacity_is_unstable;
      test "odd route pairing" test_pairing_odd_route;
      test "pair without transit rejected" test_pair_with_no_transit;
      test "greedy on disconnected components" test_greedy_on_disconnected;
      test "conv rejects general shapes" test_conv_rejects_general_shape;
      test "sup_on unbounded windows" test_sup_on_unbounded;
      test "scale by zero" test_scale_zero;
      test "shift by zero" test_shift_by_zero_identity;
      test "engine dispatch over all methods" test_engine_all_methods_on_tandem;
      test "relative improvement corners" test_relative_improvement_corners;
      test "fifo-theta accessor" test_fifo_theta_thetas_accessor;
      test "simulator with no emissions" test_sim_no_emissions;
      test "oversized packets rejected" test_source_rejects_oversized_packet;
    ] )
