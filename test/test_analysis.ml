(* Tests for the analysis engines: Decomposed, Service Curve,
   Integrated (pairing + pair bound), FIFO-theta, admission control. *)

open Testutil

let tb ~sigma ~rho = Pwl.affine ~y0:sigma ~slope:rho

let tandem ?(peak = 1.) ?(sigma = 1.) n u =
  Tandem.make ~n ~utilization:u ~sigma ~peak ()

(* ------------------------------------------------------------------ *)
(* Pairing                                                             *)
(* ------------------------------------------------------------------ *)

let test_pairing_along_route () =
  let t = tandem 4 0.5 in
  let p = Pairing.build t.network (Pairing.Along_route 0) in
  let pairs =
    List.filter (function Pairing.Pair _ -> true | _ -> false) p
  in
  Alcotest.(check int) "two pairs on conn0's route" 2 (List.length pairs);
  check_bool "conn0 hops paired in order" true
    (List.mem (Pairing.Pair (0, 1)) p && List.mem (Pairing.Pair (2, 3)) p);
  (* All 12 servers covered exactly once. *)
  let covered = List.concat_map Pairing.servers_of p in
  Alcotest.(check int) "cover size" 12 (List.length covered);
  Alcotest.(check int) "no duplicates" 12
    (List.length (List.sort_uniq compare covered))

let test_pairing_singletons () =
  let t = tandem 3 0.5 in
  let p = Pairing.build t.network Pairing.Singletons in
  check_bool "only singletons" true
    (List.for_all (function Pairing.Single _ -> true | _ -> false) p)

let test_pairing_greedy () =
  let t = tandem 6 0.5 in
  let p = Pairing.build t.network Pairing.Greedy in
  Pairing.validate t.network p;
  check_bool "greedy pairs something" true
    (List.exists (function Pairing.Pair _ -> true | _ -> false) p)

let test_pairing_rejects_contraction_cycle () =
  (* u -> x -> v plus u -> v: pairing (u, v) would contract into a
     cycle through x's subnet and must be rejected. *)
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.05 () in
  let servers = List.init 3 (fun id -> Server.make ~id ~rate:1. ()) in
  let flows =
    [
      Flow.make ~id:0 ~arrival ~route:[ 0; 2 ] ();
      Flow.make ~id:1 ~arrival ~route:[ 0; 1; 2 ] ();
    ]
  in
  let net = Network.make ~servers ~flows in
  (try
     Pairing.validate net [ Pairing.Pair (0, 2); Pairing.Single 1 ];
     Alcotest.fail "expected rejection"
   with Network.Cyclic | Invalid_argument _ -> ());
  (* Greedy must avoid that pair and still produce a valid pairing. *)
  let p = Pairing.build net Pairing.Greedy in
  Pairing.validate net p

let test_pairing_validate_cover () =
  let t = tandem 2 0.5 in
  try
    Pairing.validate t.network [ Pairing.Pair (0, 1) ];
    Alcotest.fail "expected cover violation"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Pair analysis (the Theorem)                                         *)
(* ------------------------------------------------------------------ *)

let test_pair_pay_burst_once () =
  (* One flow, two rate-1 servers, no cross traffic: end-to-end bound
     is sigma (burst paid once), versus sigma (2 + rho) decomposed. *)
  let r =
    Pair_analysis.analyze
      { c1 = 1.; c2 = 1.; s12 = [ tb ~sigma:2. ~rho:0.25 ]; s1 = []; s2 = [] }
  in
  approx "pay burst once" 2. r.d_pair;
  approx "d1 is the local bound" 2. r.d1

let test_pair_dominates_locals () =
  let r =
    Pair_analysis.analyze
      {
        c1 = 1.;
        c2 = 1.;
        s12 = [ tb ~sigma:1. ~rho:0.1 ];
        s1 = [ tb ~sigma:1. ~rho:0.1 ];
        s2 = [ tb ~sigma:1. ~rho:0.1 ];
      }
  in
  check_bool "d_pair >= d1" true (r.d_pair >= r.d1 -. 1e-9);
  check_bool "finite" true (Float.is_finite r.d_pair)

let test_pair_unstable () =
  let r =
    Pair_analysis.analyze
      { c1 = 1.; c2 = 1.; s12 = [ tb ~sigma:1. ~rho:1.2 ]; s1 = []; s2 = [] }
  in
  approx "unstable pair" infinity r.d_pair;
  approx "unstable d1" infinity r.d1

let test_pair_unstable_second_only () =
  (* Server 1 fine; server 2 overloaded by fresh traffic. *)
  let r =
    Pair_analysis.analyze
      {
        c1 = 1.;
        c2 = 1.;
        s12 = [ tb ~sigma:1. ~rho:0.2 ];
        s1 = [];
        s2 = [ tb ~sigma:1. ~rho:0.9 ];
      }
  in
  check_bool "d1 finite" true (Float.is_finite r.d1);
  approx "d2 infinite" infinity r.d2;
  approx "pair infinite" infinity r.d_pair

(* The pair bound must be at least as large as the bound evaluated on
   a dense grid of (s, u2) scenarios — a numeric guard for the
   candidate-set argument in DESIGN.md §3.3.  All ingredients (busy
   periods, d1) are recomputed independently so a bug in the engine
   cannot silently shrink the grid. *)
let dense_pair_bound ~c1 ~c2 ~s12 ~s1 ~s2 =
  let g1 = Pwl.sum (s12 @ s1) in
  let f12 = Pwl.sum s12 in
  let f2 = Pwl.sum s2 in
  let d1 = Fifo.local_delay ~rate:c1 ~agg:g1 in
  let busy1 = Fifo.busy_period ~rate:c1 ~agg:g1 in
  let a2win =
    Pwl.add
      (Pwl.min_pw (Pwl.affine ~y0:0. ~slope:c1) (Pwl.shift_left f12 d1))
      f2
  in
  let busy2 = Fifo.busy_period ~rate:c2 ~agg:a2win in
  let grid lo hi n =
    List.init (n + 1) (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int n))
  in
  let best = ref 0. in
  List.iter
    (fun s ->
      let tau = Float.max s (Pwl.eval g1 s /. c1) in
      let m = Pwl.eval f12 tau in
      (* case A *)
      List.iter
        (fun w ->
          let transit =
            Float.min (c1 *. w)
              (Float.min m (Pwl.eval f12 (w +. d1)))
          in
          let v = tau -. s +. ((transit +. Pwl.eval f2 w) /. c2) -. w in
          if v > !best then best := v)
        (grid 0. tau 40);
      (* case B *)
      List.iter
        (fun w ->
          let transit = Float.min (c1 *. w) (Pwl.eval f12 (w +. d1)) in
          let v = tau -. s +. ((transit +. Pwl.eval f2 w) /. c2) -. w in
          if v > !best then best := v)
        (grid tau (tau +. Float.min busy2 50.) 40))
    (grid 0. busy1 60);
  !best

let test_pair_bound_dominates_dense_grid () =
  List.iter
    (fun (sigma, rho, cross) ->
      let input =
        {
          Pair_analysis.c1 = 1.;
          c2 = 1.;
          s12 = [ tb ~sigma ~rho; tb ~sigma:cross ~rho ];
          s1 = [ tb ~sigma:cross ~rho ];
          s2 = [ tb ~sigma ~rho; tb ~sigma:cross ~rho ];
        }
      in
      let r = Pair_analysis.analyze input in
      let dense =
        dense_pair_bound ~c1:1. ~c2:1. ~s12:input.s12 ~s1:input.s1
          ~s2:input.s2
      in
      check_bool
        (Printf.sprintf "candidate sup >= dense grid (sigma=%g rho=%g)" sigma
           rho)
        true
        (r.d_pair >= dense -. 1e-6))
    [ (1., 0.1, 1.); (2., 0.2, 0.5); (0.5, 0.05, 3.); (1., 0.24, 1.) ];
  (* The same property with the paper's peak-rate-1 (continuous at 0)
     sources — a regression guard for busy periods of envelopes that
     touch the service line at the origin. *)
  List.iter
    (fun u ->
      let rho = u /. 4. in
      let src () = Pwl.min_pw (Pwl.affine ~y0:0. ~slope:1.)
          (Pwl.affine ~y0:1. ~slope:rho) in
      let input =
        { Pair_analysis.c1 = 1.; c2 = 1.;
          s12 = [ src (); src () ]; s1 = [ src () ]; s2 = [ src (); src () ] }
      in
      let r = Pair_analysis.analyze input in
      check_bool "busy period not collapsed" true (r.busy1 > 1.);
      let dense =
        dense_pair_bound ~c1:1. ~c2:1. ~s12:input.s12 ~s1:input.s1
          ~s2:input.s2
      in
      check_bool
        (Printf.sprintf "peak-capped candidate sup >= dense grid (U=%g)" u)
        true
        (r.d_pair >= dense -. 1e-6))
    [ 0.1; 0.5; 0.9 ]

let prop_pair_below_two_hop_decomposition =
  (* The integrated pair bound never exceeds (and usually beats) the
     decomposed two-server bound with the same inputs. *)
  qtest ~count:100 "pair bound <= decomposed sum"
    QCheck2.Gen.(
      quad (float_range 0.2 3.) (float_range 0.01 0.2) (float_range 0. 3.)
        (float_range 0. 3.))
    (fun (sigma, rho, cross1, cross2) ->
      let s12 = [ tb ~sigma ~rho ] in
      let s1 = if cross1 = 0. then [] else [ tb ~sigma:cross1 ~rho ] in
      let s2 = if cross2 = 0. then [] else [ tb ~sigma:cross2 ~rho ] in
      let r = Pair_analysis.analyze { c1 = 1.; c2 = 1.; s12; s1; s2 } in
      (* Decomposed: local delay at server 1, then inflated envelopes
         at server 2. *)
      let d1 = Fifo.local_delay ~rate:1. ~agg:(Pwl.sum (s12 @ s1)) in
      let inflated = List.map (fun c -> Pwl.shift_left c d1) s12 in
      let d2 = Fifo.local_delay ~rate:1. ~agg:(Pwl.sum (inflated @ s2)) in
      r.d_pair <= d1 +. d2 +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Decomposed engine vs closed form                                    *)
(* ------------------------------------------------------------------ *)

let test_decomposed_matches_closed_form () =
  List.iter
    (fun (n, u) ->
      let t = tandem ~peak:infinity n u in
      let a = Decomposed.analyze t.network in
      let rho = u /. 4. in
      approx
        (Printf.sprintf "closed form n=%d U=%g" n u)
        (Closed_form.decomposed ~n ~sigma:1. ~rho)
        (Decomposed.flow_delay a 0))
    [ (2, 0.3); (3, 0.5); (4, 0.8); (8, 0.9); (6, 0.2) ]

let test_decomposed_locals_match () =
  let n = 4 and u = 0.6 in
  let t = tandem ~peak:infinity n u in
  let a = Decomposed.analyze t.network in
  let expected = Closed_form.decomposed_locals ~n ~sigma:1. ~rho:(u /. 4.) in
  List.iteri
    (fun k e ->
      approx (Printf.sprintf "E_%d" k) e
        (Decomposed.local_delay a ~flow:0 ~server:k))
    expected

(* Off-route lookups: the engines raise a descriptive
   Invalid_argument, never an ambient Not_found (which Par workers
   and the serve loop would see as stray control flow), and the _opt
   variant mirrors the raising one exactly. *)
let test_off_route_lookups () =
  let t = tandem 3 0.5 in
  let a = Decomposed.analyze t.network in
  let expect_invalid what f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "Decomposed.local_delay" (fun () ->
      Decomposed.local_delay a ~flow:0 ~server:999);
  expect_invalid "Decomposed.local_backlog" (fun () ->
      Decomposed.local_backlog a ~flow:0 ~server:999);
  let i = Integrated.analyze t.network in
  expect_invalid "Integrated.local_backlog" (fun () ->
      Integrated.local_backlog i ~flow:0 ~server:999);
  let off_route = ref 0 in
  List.iter
    (fun subnet ->
      match Integrated.subnet_delay_opt i ~flow:0 ~subnet with
      | Some d ->
          approx "subnet_delay agrees with _opt" d
            (Integrated.subnet_delay i ~flow:0 ~subnet)
      | None ->
          incr off_route;
          expect_invalid "Integrated.subnet_delay off-route" (fun () ->
              Integrated.subnet_delay i ~flow:0 ~subnet))
    (Integrated.pairing i);
  check_bool "some subnet is off-route for the through flow" true
    (!off_route > 0)

let test_service_curve_matches_closed_form () =
  List.iter
    (fun (n, u) ->
      let t = tandem ~peak:infinity n u in
      let a = Service_curve_method.analyze (Decomposed.analyze t.network) in
      approx
        (Printf.sprintf "closed form n=%d U=%g" n u)
        (Closed_form.service_curve ~n ~sigma:1. ~rho:(u /. 4.))
        (Service_curve_method.flow_delay a 0))
    [ (2, 0.3); (4, 0.5); (5, 0.8) ]

let test_decomposed_unstable () =
  (* Utilization above 1 at an interior port: infinite bound for the
     flows that cross it, finite for those that do not. *)
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.6 () in
  let servers = List.init 2 (fun id -> Server.make ~id ~rate:1. ()) in
  let flows =
    [
      Flow.make ~id:0 ~arrival ~route:[ 0; 1 ] ();
      Flow.make ~id:1 ~arrival ~route:[ 0; 1 ] ();
      Flow.make ~id:2 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ())
        ~route:[ 0 ] ();
    ]
  in
  let net = Network.make ~servers ~flows in
  let a = Decomposed.analyze net in
  (* Server 0 carries 1.3 > 1: everyone through it is unbounded. *)
  approx "flow 0 unbounded" infinity (Decomposed.flow_delay a 0);
  approx "flow 2 unbounded" infinity (Decomposed.flow_delay a 2)

(* ------------------------------------------------------------------ *)
(* Integrated engine                                                   *)
(* ------------------------------------------------------------------ *)

let test_integrated_beats_decomposed_on_tandem () =
  List.iter
    (fun (n, u) ->
      let t = tandem n u in
      let dd = Decomposed.flow_delay (Decomposed.analyze t.network) 0 in
      let di =
        Integrated.flow_delay
          (Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network)
          0
      in
      check_bool (Printf.sprintf "D_I < D_D at n=%d U=%g" n u) true
        (di < dd))
    [ (2, 0.2); (2, 0.9); (4, 0.5); (6, 0.8); (8, 0.9); (5, 0.4) ]

let test_integrated_all_flows_dominated () =
  let t = tandem 5 0.7 in
  let dd = Decomposed.analyze t.network in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network in
  List.iter
    (fun (f : Flow.t) ->
      check_bool (Printf.sprintf "%s integrated <= decomposed" f.name) true
        (Integrated.flow_delay integ f.id
        <= Decomposed.flow_delay dd f.id +. 1e-9))
    (Network.flows t.network)

let test_integrated_singletons_equals_decomposed () =
  (* With singleton subnetworks the integrated algorithm degenerates to
     the decomposed one. *)
  let t = tandem 4 0.6 in
  let dd = Decomposed.analyze t.network in
  let integ = Integrated.analyze ~strategy:Pairing.Singletons t.network in
  List.iter
    (fun (f : Flow.t) ->
      approx
        (Printf.sprintf "%s equal" f.name)
        (Decomposed.flow_delay dd f.id)
        (Integrated.flow_delay integ f.id))
    (Network.flows t.network)

let test_integrated_rejects_non_fifo () =
  let servers =
    [
      Server.make ~id:0 ~rate:1. ();
      Server.make ~id:1 ~rate:1. ~discipline:Discipline.Gps ();
    ]
  in
  let flows =
    [
      Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ())
        ~route:[ 0; 1 ] ();
    ]
  in
  let net = Network.make ~servers ~flows in
  try
    ignore (Integrated.analyze net);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_integrated_subnet_delay_bookkeeping () =
  let t = tandem 4 0.5 in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network in
  let d01 = Integrated.subnet_delay integ ~flow:0 ~subnet:(Pairing.Pair (0, 1)) in
  let d23 = Integrated.subnet_delay integ ~flow:0 ~subnet:(Pairing.Pair (2, 3)) in
  approx "contributions sum to the bound" (d01 +. d23)
    (Integrated.flow_delay integ 0)

let test_link_cap_option_tightens () =
  let t = tandem 6 0.8 in
  let base = Decomposed.flow_delay (Decomposed.analyze t.network) 0 in
  let capped =
    Decomposed.flow_delay
      (Decomposed.analyze ~options:Options.sharpened t.network)
      0
  in
  check_bool "link cap never hurts" true (capped <= base +. 1e-9);
  check_bool "link cap strictly helps here" true (capped < base -. 1e-6)

let prop_integrated_dominated_on_random_nets =
  qtest ~count:40 "integrated <= decomposed on random feedforward nets"
    QCheck2.Gen.(
      triple (int_range 2 4) (int_range 2 10) (int_range 0 10_000))
    (fun (layers, num_flows, seed) ->
      let net =
        Randomnet.generate
          { Randomnet.default with layers; num_flows; seed; utilization = 0.8 }
      in
      let dd = Decomposed.analyze net in
      let integ = Integrated.analyze ~strategy:Pairing.Greedy net in
      List.for_all
        (fun (f : Flow.t) ->
          Integrated.flow_delay integ f.id
          <= Decomposed.flow_delay dd f.id +. 1e-6)
        (Network.flows net))

(* ------------------------------------------------------------------ *)
(* Service curve and FIFO-theta                                        *)
(* ------------------------------------------------------------------ *)

let test_service_curve_blowup_at_high_load () =
  (* The leftover rate collapses as U -> 1: D_SC grows much faster
     than D_D (Fig. 4's message). *)
  let r u =
    let t = tandem 4 u in
    let dsc = Service_curve_method.flow_delay (Service_curve_method.analyze (Decomposed.analyze t.network)) 0 in
    let dd = Decomposed.flow_delay (Decomposed.analyze t.network) 0 in
    dsc /. dd
  in
  check_bool "ratio grows with load" true (r 0.9 > r 0.5 && r 0.5 > r 0.2)

let test_fifo_theta_beats_service_curve () =
  List.iter
    (fun (n, u) ->
      let t = tandem n u in
      let dsc =
        Service_curve_method.flow_delay
          (Service_curve_method.analyze (Decomposed.analyze t.network))
          0
      in
      let dth = Fifo_theta.flow_delay (Fifo_theta.analyze (Decomposed.analyze t.network)) 0 in
      check_bool (Printf.sprintf "theta <= SFA at n=%d U=%g" n u) true
        (dth <= dsc +. 1e-9))
    [ (2, 0.5); (4, 0.8); (6, 0.9) ]

(* One static-priority server of rate 1: an urgent flow ahead of a
   small tagged one.  The FIFO theta family does not hold here; an
   analysis using it bounds the tagged flow by 10.2, while the packet
   simulator observes 20.1. *)
let test_fifo_theta_sound_at_sp_hop () =
  let flow id ~sigma ~rho ~priority =
    Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma ~rho ()) ~route:[ 0 ]
      ~priority ()
  in
  let net =
    Network.make
      ~servers:
        [ Server.make ~id:0 ~rate:1. ~discipline:Discipline.Static_priority () ]
      ~flows:
        [
          flow 0 ~sigma:10. ~rho:0.5 ~priority:0;
          flow 1 ~sigma:0.1 ~rho:0.1 ~priority:1;
        ]
  in
  let dd = Decomposed.analyze net in
  let theta = Fifo_theta.analyze dd in
  let d = Fifo_theta.flow_delay theta 1 in
  check_bool (Printf.sprintf "tagged bound %g >= observed 20.1" d) true
    (d >= 20.1);
  approx "equals service curve"
    (Service_curve_method.flow_delay (Service_curve_method.analyze dd) 1)
    d;
  let config = { Sim.default_config with packet_size = 0.05; horizon = 200. } in
  let reports =
    Validate.check ~config ~bounds:(Fifo_theta.all_flow_delays theta) net
  in
  check_bool "no violations" true (Validate.violations reports = [])

(* Service Curve charges the non-preemption blocking term too: an
   urgent flow waits behind one lower-priority packet at every hop. *)
let test_service_curve_charges_sp_blocking () =
  let t =
    Tandem.make ~n:4 ~utilization:0.6 ~discipline:Discipline.Static_priority ()
  in
  let blocking = 0.5 in
  let dd =
    Decomposed.analyze
      ~options:(Options.with_blocking blocking Options.default)
      t.network
  in
  let sc = Service_curve_method.analyze dd in
  let urgent =
    List.filter (fun (f : Flow.t) -> f.priority = 0) (Network.flows t.network)
  in
  check_bool "has urgent flows" true (urgent <> []);
  List.iter
    (fun (f : Flow.t) ->
      let d = Service_curve_method.flow_delay sc f.id in
      check_bool
        (Printf.sprintf "%s bound %g >= blocking %g" f.name d blocking)
        true (d >= blocking))
    urgent

let test_network_service_curve_composition () =
  let t = tandem 3 0.5 in
  let a = Service_curve_method.analyze (Decomposed.analyze t.network) in
  let net_curve = Service_curve_method.network_service_curve a ~flow:0 in
  (* The network curve is below every hop curve (convolution). *)
  List.iter
    (fun sid ->
      let hop = Service_curve_method.hop_service_curve a ~flow:0 ~server:sid in
      List.iter
        (fun x ->
          check_bool "network curve below hop curve" true
            (Pwl.eval net_curve x <= Pwl.eval hop x +. 1e-9))
        [ 0.; 1.; 5.; 20. ])
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Engine and admission control                                        *)
(* ------------------------------------------------------------------ *)

let test_engine_comparison () =
  let t = tandem 3 0.6 in
  let c = Engine.compare_all ~strategy:(Pairing.Along_route 0) t.network 0 in
  check_bool "integrated strictly best of the paper's three" true
    (c.integrated < c.decomposed && c.integrated < c.service_curve);
  approx "relative improvement definition" 0.25
    (Engine.relative_improvement 4. 3.)

let test_admission_integrated_admits_more () =
  (* Offer identical deadline-bearing copies of conn0-like connections;
     the tighter analysis admits at least as many. *)
  let n = 4 in
  let base = Tandem.make ~n ~utilization:0.5 () in
  let servers = Network.servers base.network in
  let deadline = 18. in
  let candidates =
    List.init 6 (fun i ->
        Flow.make ~id:(100 + i)
          ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.02)
          ~route:(List.init n (fun k -> k))
          ~deadline ())
  in
  let run method_ =
    (Admission.run ~servers
       ~base:(Network.flows base.network)
       ~candidates ~method_ ~strategy:(Pairing.Along_route 0) ())
      .admitted |> List.length
  in
  let n_dec = run Engine.Decomposed in
  let n_int = run Engine.Integrated in
  check_bool
    (Printf.sprintf "integrated admits >= decomposed (%d vs %d)" n_int n_dec)
    true (n_int >= n_dec);
  check_bool "integrated admits something" true (n_int > 0)

let test_admission_rejects_no_deadline () =
  let base = Tandem.make ~n:2 ~utilization:0.3 () in
  let cand =
    Flow.make ~id:50 ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.01)
      ~route:[ 0; 1 ] ()
  in
  let outcome =
    Admission.run
      ~servers:(Network.servers base.network)
      ~base:(Network.flows base.network)
      ~candidates:[ cand ] ~method_:Engine.Decomposed ()
  in
  Alcotest.(check int) "rejected" 1 (List.length outcome.rejected)

let test_admission_is_fcfs () =
  (* A large early candidate can crowd out later small ones: admission
     is first-come-first-served with no backtracking. *)
  let n = 2 in
  let t = Tandem.make ~n ~utilization:0.3 () in
  let servers = Network.servers t.network in
  let base = Network.flows t.network in
  let big id =
    Flow.make ~id ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.3)
      ~route:[ 0; 1 ] ~deadline:30. ()
  in
  let small id =
    Flow.make ~id ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.05)
      ~route:[ 0; 1 ] ~deadline:30. ()
  in
  let count candidates =
    List.length
      (Admission.run ~servers ~base ~candidates ~method_:Engine.Integrated
         ~strategy:(Pairing.Along_route 0) ())
        .admitted
  in
  let big_first = count [ big 100; small 101; small 102; small 103 ] in
  let small_first = count [ small 101; small 102; small 103; big 100 ] in
  check_bool
    (Printf.sprintf "ordering matters (%d vs %d)" big_first small_first)
    true
    (small_first >= big_first)


let prop_link_cap_never_hurts_random =
  qtest ~count:30 "link-cap sharpening never hurts on random nets"
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (num_flows, seed) ->
      let net =
        Randomnet.generate
          { Randomnet.default with num_flows; seed; utilization = 0.75 }
      in
      let plain = Integrated.analyze ~strategy:Pairing.Greedy net in
      let capped =
        Integrated.analyze ~options:Options.sharpened ~strategy:Pairing.Greedy
          net
      in
      List.for_all
        (fun (f : Flow.t) ->
          Integrated.flow_delay capped f.id
          <= Integrated.flow_delay plain f.id +. 1e-6)
        (Network.flows net))


let suite =
  ( "analysis",
    [
      test "pairing along route" test_pairing_along_route;
      test "pairing singletons" test_pairing_singletons;
      test "pairing greedy" test_pairing_greedy;
      test "pairing rejects contraction cycles"
        test_pairing_rejects_contraction_cycle;
      test "pairing validates cover" test_pairing_validate_cover;
      test "off-route lookups raise Invalid_argument" test_off_route_lookups;
      test "pair: pay bursts only once" test_pair_pay_burst_once;
      test "pair dominates locals" test_pair_dominates_locals;
      test "pair unstable" test_pair_unstable;
      test "pair unstable second server" test_pair_unstable_second_only;
      test "pair bound dominates dense scenario grid"
        test_pair_bound_dominates_dense_grid;
      prop_pair_below_two_hop_decomposition;
      test "decomposed = closed form (D_D)" test_decomposed_matches_closed_form;
      test "decomposed locals = closed form (E_k)"
        test_decomposed_locals_match;
      test "service curve = closed form (D_SC)"
        test_service_curve_matches_closed_form;
      test "decomposed unstable propagation" test_decomposed_unstable;
      test "integrated beats decomposed on tandem (Fig. 5)"
        test_integrated_beats_decomposed_on_tandem;
      test "integrated dominates for every flow"
        test_integrated_all_flows_dominated;
      test "singleton pairing degenerates to decomposed"
        test_integrated_singletons_equals_decomposed;
      test "integrated rejects non-FIFO" test_integrated_rejects_non_fifo;
      test "subnet delay bookkeeping" test_integrated_subnet_delay_bookkeeping;
      test "link-cap sharpening" test_link_cap_option_tightens;
      prop_link_cap_never_hurts_random;
      prop_integrated_dominated_on_random_nets;
      test "service-curve blow-up at high load (Fig. 4)"
        test_service_curve_blowup_at_high_load;
      test "FIFO-theta never worse than SFA" test_fifo_theta_beats_service_curve;
      test "FIFO-theta sound at a static-priority hop"
        test_fifo_theta_sound_at_sp_hop;
      test "service curve charges SP blocking"
        test_service_curve_charges_sp_blocking;
      test "network service curve composition"
        test_network_service_curve_composition;
      test "engine comparison" test_engine_comparison;
      test "admission: integrated admits more"
        test_admission_integrated_admits_more;
      test "admission rejects deadline-less flows"
        test_admission_rejects_no_deadline;
      test "admission is FCFS (ordering matters)" test_admission_is_fcfs;
    ] )
