(* Reports, adversarial validation, and cross-engine monotonicity
   properties. *)

open Testutil

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_decomposed_report () =
  let t = Tandem.make ~n:2 ~utilization:0.5 () in
  let r = Report.decomposed (Decomposed.analyze t.network) in
  List.iter
    (fun needle ->
      check_bool ("report mentions " ^ needle) true (contains r needle))
    [ "Decomposed"; "mid0"; "conn0"; "busy period"; "backlog"; "per-hop" ]

let test_integrated_report () =
  let t = Tandem.make ~n:2 ~utilization:0.5 () in
  let r =
    Report.integrated
      (Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network)
  in
  List.iter
    (fun needle ->
      check_bool ("report mentions " ^ needle) true (contains r needle))
    [ "Integrated"; "Pairing:"; "{0,1}"; "per-subnetwork" ]

let test_adversarial_dominates_single_run () =
  let t = Tandem.make ~n:3 ~utilization:0.7 ~peak:infinity () in
  let net = t.network in
  let config = { Sim.default_config with packet_size = 0.25; horizon = 150. } in
  let single = Sim.run ~config net in
  let adv = Validate.adversarial_max_delays ~config ~tries:4 net in
  List.iter
    (fun (f : Flow.t) ->
      let a = List.assoc f.id adv in
      check_bool (f.name ^ ": adversarial >= aligned run") true
        (a >= Sim.max_delay single f.id -. 1e-9))
    (Network.flows net);
  (* And still below the integrated bounds. *)
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  List.iter
    (fun (id, obs) ->
      let f = Network.flow net id in
      let allowance =
        Validate.store_and_forward_allowance ~packet_size:config.packet_size
          net f
      in
      check_bool
        (Printf.sprintf "%s: adversarial max below bound" f.name)
        true
        (obs <= Integrated.flow_delay integ id +. allowance +. 1e-9))
    adv

(* Monotonicity: adding traffic can only worsen (or keep) every bound. *)
let test_bounds_monotone_in_population () =
  let t = Tandem.make ~n:3 ~utilization:0.5 () in
  let net = t.network in
  let extra =
    Flow.make ~id:99 ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.05)
      ~route:[ 0; 1; 2 ] ()
  in
  let bigger = Network.with_flows net (Network.flows net @ [ extra ]) in
  let check_engine name flow_delay =
    List.iter
      (fun (f : Flow.t) ->
        check_bool
          (Printf.sprintf "%s: %s bound monotone" name f.name)
          true
          (flow_delay bigger f.id >= flow_delay net f.id -. 1e-9))
      (Network.flows net)
  in
  check_engine "decomposed" (fun n id ->
      Decomposed.flow_delay (Decomposed.analyze n) id);
  check_engine "integrated" (fun n id ->
      Integrated.flow_delay
        (Integrated.analyze ~strategy:(Pairing.Along_route 0) n)
        id);
  check_engine "service-curve" (fun n id ->
      Service_curve_method.flow_delay
        (Service_curve_method.analyze (Decomposed.analyze n))
        id)

let test_bounds_monotone_in_burst () =
  let bound sigma =
    let t = Tandem.make ~n:4 ~utilization:0.6 ~sigma () in
    Integrated.flow_delay
      (Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network)
      0
  in
  let bs = List.map bound [ 0.5; 1.; 2.; 4. ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  check_bool "integrated bound monotone in sigma" true (increasing bs)

let suite =
  ( "report",
    [
      test "decomposed report" test_decomposed_report;
      test "integrated report" test_integrated_report;
      test "adversarial phase search" test_adversarial_dominates_single_run;
      test "bounds monotone in population" test_bounds_monotone_in_population;
      test "bounds monotone in burst" test_bounds_monotone_in_burst;
    ] )
