(* Tests for the discrete-event simulator and bound validation. *)

open Testutil

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_order () =
  let h = Event_heap.create () in
  List.iter (fun (t, v) -> Event_heap.push h ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b"); (1., "a2"); (0.5, "z") ];
  let popped = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (_, v) ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "time order with FIFO ties"
    [ "z"; "a"; "a2"; "b"; "c" ]
    (List.rev !popped)

let prop_heap_sorted =
  qtest "heap pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0. 100.))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.push h ~time:t ()) times;
      let rec check last =
        match Event_heap.pop h with
        | Some (t, ()) -> t >= last && check t
        | None -> true
      in
      check neg_infinity)

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let conforms ~sigma ~rho ~packet_size times =
  (* Check N (s, t] <= sigma + rho (t - s) over all emission pairs. *)
  let arr = Array.of_list times in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      (* Packets i..j all emitted in the window (arr.(i) - eps, arr.(j)]. *)
      let count = float_of_int (j - i + 1) *. packet_size in
      let window = arr.(j) -. arr.(i) in
      if count > sigma +. (rho *. window) +. 1e-9 then ok := false
    done
  done;
  !ok

let test_greedy_emissions () =
  let times =
    Source.emission_times (Greedy { start = 0. }) ~sigma:1. ~rho:0.25 ~peak:1.
      ~packet_size:0.25 ~horizon:10.
  in
  check_bool "nonempty" true (times <> []);
  (* The initial burst: 4 packets spaced by packet/peak = 0.25. *)
  (match times with
  | t1 :: t2 :: _ ->
      approx "first right away" 0. t1;
      approx "peak spacing" 0.25 t2
  | _ -> Alcotest.fail "too few packets");
  check_bool "conforms" true (conforms ~sigma:1. ~rho:0.25 ~packet_size:0.25 times)

let test_periodic_emissions () =
  let times =
    Source.emission_times
      (Periodic { start = 0.; interval = 2. })
      ~sigma:1. ~rho:1. ~peak:infinity ~packet_size:1. ~horizon:10.
  in
  Alcotest.(check int) "count" 6 (List.length times);
  approx "spacing" 2. (List.nth times 1 -. List.nth times 0)

let test_onoff_emissions () =
  let times =
    Source.emission_times
      (On_off { start = 0.; on = 1.; off = 3. })
      ~sigma:1. ~rho:0.25 ~peak:1. ~packet_size:0.5 ~horizon:20.
  in
  check_bool "nonempty" true (times <> []);
  (* No emission strictly inside an off-phase. *)
  List.iter
    (fun t ->
      let phase = Float.rem t 4. in
      check_bool (Printf.sprintf "t=%g in on-phase" t) true (phase <= 1. +. 1e-9))
    times;
  check_bool "conforms" true (conforms ~sigma:1. ~rho:0.25 ~packet_size:0.5 times)

let prop_greedy_conforms =
  qtest ~count:100 "greedy emissions conform to the token bucket"
    QCheck2.Gen.(
      triple (float_range 0.5 4.) (float_range 0.05 0.9) (float_range 0.1 0.5))
    (fun (sigma, rho, frac) ->
      let packet_size = frac *. sigma in
      let times =
        Source.emission_times (Greedy { start = 0. }) ~sigma ~rho ~peak:1.
          ~packet_size ~horizon:30.
      in
      conforms ~sigma ~rho ~packet_size times)

(* ------------------------------------------------------------------ *)
(* Single-server sanity                                                *)
(* ------------------------------------------------------------------ *)

let single_server_net ~discipline flows =
  Network.make ~servers:[ Server.make ~id:0 ~rate:1. ~discipline () ] ~flows

let test_single_fifo_delay () =
  (* One greedy (sigma=1, rho=0.25) source on a rate-1 server: the
     first packets queue behind the burst; max delay stays below the
     analytic bound sigma = 1 and approaches it. *)
  let f =
    Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.25 ())
      ~route:[ 0 ] ()
  in
  let net = single_server_net ~discipline:Discipline.Fifo [ f ] in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size = 0.25; horizon = 50. } net
  in
  let bound = Fifo.local_delay ~rate:1. ~agg:(Flow.source_curve f) in
  let obs = Sim.max_delay res 0 in
  check_bool "below bound" true (obs <= bound +. 1e-9);
  check_bool "bound reasonably tight (> 60%)" true (obs >= 0.6 *. bound)

let test_work_conservation () =
  (* All packets drain: delivered = emitted. *)
  let f1 =
    Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.3 ())
      ~route:[ 0 ] ()
  in
  let f2 =
    Flow.make ~id:1 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.3 ())
      ~route:[ 0 ] ()
  in
  let net = single_server_net ~discipline:Discipline.Fifo [ f1; f2 ] in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size = 0.5; horizon = 40. } net
  in
  let emitted =
    List.length
      (Source.emission_times (Greedy { start = 0. }) ~sigma:1. ~rho:0.3
         ~peak:infinity ~packet_size:0.5 ~horizon:40.)
  in
  Alcotest.(check int) "all delivered" (2 * emitted) (Sim.packets_delivered res)

let test_sp_preference () =
  (* High-priority flow sees much lower delay than low-priority one. *)
  let mk id prio =
    Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma:2. ~rho:0.4 ())
      ~route:[ 0 ] ~priority:prio ()
  in
  let net =
    single_server_net ~discipline:Discipline.Static_priority
      [ mk 0 0; mk 1 5 ]
  in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size = 0.5; horizon = 60. } net
  in
  check_bool "high priority faster" true
    (Sim.max_delay res 0 < Sim.max_delay res 1)

let test_gps_isolation () =
  (* Under WFQ a light flow is protected from a heavy one. *)
  let mk id sigma w =
    Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma ~rho:0.4 ())
      ~route:[ 0 ] ~weight:w ()
  in
  let net = single_server_net ~discipline:Discipline.Gps [ mk 0 0.5 1.; mk 1 6. 1. ] in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size = 0.25; horizon = 60. } net
  in
  check_bool "light flow protected" true
    (Sim.max_delay res 0 < Sim.max_delay res 1)

let test_edf_meets_deadlines () =
  let mk id dl =
    Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.3 ())
      ~route:[ 0 ] ~deadline:dl ()
  in
  let net = single_server_net ~discipline:Discipline.Edf [ mk 0 3.; mk 1 8. ] in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size = 0.5; horizon = 60. } net
  in
  (* The schedulability test accepts this population, so simulated
     delays stay below the local deadlines. *)
  check_bool "flow 0 meets deadline" true (Sim.max_delay res 0 <= 3.);
  check_bool "flow 1 meets deadline" true (Sim.max_delay res 1 <= 8.);
  check_bool "tight flow served sooner" true
    (Sim.max_delay res 0 <= Sim.max_delay res 1)

(* ------------------------------------------------------------------ *)
(* Bound validation (the headline property)                            *)
(* ------------------------------------------------------------------ *)

let validate_tandem n u =
  let t = Tandem.make ~n ~utilization:u ~peak:infinity () in
  let net = t.network in
  let dd = Decomposed.analyze net in
  let sc = Service_curve_method.analyze dd in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  let config = { Sim.default_config with packet_size = 0.25; horizon = 300. } in
  List.iter
    (fun (engine, bounds) ->
      let reports = Validate.check ~config ~bounds net in
      List.iter
        (fun (r : Validate.report) ->
          check_bool
            (Printf.sprintf "%s bound holds for flow %d (n=%d U=%g): %.3f <= %.3f"
               engine r.flow n u r.observed r.bound)
            true (r.slack >= -1e-6))
        reports)
    [
      ("decomposed", Decomposed.all_flow_delays dd);
      ("service-curve", Service_curve_method.all_flow_delays sc);
      ("integrated", Integrated.all_flow_delays integ);
    ]

let test_validation_small () = validate_tandem 2 0.6
let test_validation_medium () = validate_tandem 4 0.8
let test_validation_large () = validate_tandem 6 0.9

let prop_validation_random_networks =
  qtest ~count:15 "bounds dominate simulation on random networks"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 2 8) (int_range 0 5_000))
    (fun (layers, num_flows, seed) ->
      let net =
        Randomnet.generate
          {
            Randomnet.default with
            layers;
            num_flows;
            seed;
            utilization = 0.75;
            peak = infinity;
            max_burst = 2.;
          }
      in
      let integ = Integrated.analyze ~strategy:Pairing.Greedy net in
      let dd = Decomposed.analyze net in
      let config =
        { Sim.default_config with packet_size = 0.05; horizon = 150. }
      in
      let ok bounds =
        Validate.violations (Validate.check ~config ~bounds net) = []
      in
      ok (Integrated.all_flow_delays integ) && ok (Decomposed.all_flow_delays dd))

let test_validation_staggered_sources () =
  (* Offsetting source start times must not break any bound. *)
  let t = Tandem.make ~n:3 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let models =
    List.mapi
      (fun i (f : Flow.t) ->
        (f.id, Source.Greedy { start = float_of_int (i mod 4) *. 1.7 }))
      (Network.flows net)
  in
  let config = { Sim.default_config with packet_size = 0.25; horizon = 300.; models } in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  check_bool "no violations" true
    (Validate.violations
       (Validate.check ~config ~bounds:(Integrated.all_flow_delays integ) net)
    = [])

let test_validation_onoff_sources () =
  let t = Tandem.make ~n:3 ~utilization:0.7 ~peak:infinity () in
  let net = t.network in
  let models =
    List.map
      (fun (f : Flow.t) -> (f.id, Source.On_off { start = 0.; on = 3.; off = 5. }))
      (Network.flows net)
  in
  let config = { Sim.default_config with packet_size = 0.25; horizon = 300.; models } in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  check_bool "no violations" true
    (Validate.violations
       (Validate.check ~config ~bounds:(Integrated.all_flow_delays integ) net)
    = [])

(* ------------------------------------------------------------------ *)
(* Envelope-propagation validation (paper Fig. 2, Step 3.2)            *)
(* ------------------------------------------------------------------ *)

let envelope_checks_pass name checks =
  List.iter
    (fun (flow, server, ok) ->
      check_bool
        (Printf.sprintf "%s envelope of flow %d after server %d" name flow
           server)
        true ok)
    checks;
  check_bool (name ^ " checked something") true (checks <> [])

let test_decomposed_envelopes_hold () =
  let t = Tandem.make ~n:4 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let a = Decomposed.analyze net in
  let checks =
    Validate.check_output_envelopes
      ~config:{ Sim.default_config with packet_size = 0.25; horizon = 200. }
      ~envelope_at:(fun ~flow ~server -> Decomposed.envelope_at a ~flow ~server)
      net
  in
  envelope_checks_pass "decomposed" checks

let test_integrated_envelopes_hold () =
  let t = Tandem.make ~n:4 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let a = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  let checks =
    Validate.check_output_envelopes
      ~config:{ Sim.default_config with packet_size = 0.25; horizon = 200. }
      ~envelope_at:(fun ~flow ~server -> Integrated.envelope_at a ~flow ~server)
      net
  in
  envelope_checks_pass "integrated" checks

let test_conforms_to_envelope_detects_violation () =
  (* Four packets of size 1 at the same instant violate a (2, 0.1)
     token bucket even with one packet of slack. *)
  let env = Pwl.affine ~y0:2. ~slope:0.1 in
  check_bool "violation detected" false
    (Validate.conforms_to_envelope ~packet_size:1. ~slack:1. env
       [ 0.; 0.; 0.; 0. ]);
  check_bool "conforming series accepted" true
    (Validate.conforms_to_envelope ~packet_size:1. ~slack:1. env
       [ 0.; 0.; 10.; 20. ])

let suite =
  ( "sim",
    [
      test "heap ordering" test_heap_order;
      prop_heap_sorted;
      test "greedy emissions" test_greedy_emissions;
      test "periodic emissions" test_periodic_emissions;
      test "on/off emissions" test_onoff_emissions;
      prop_greedy_conforms;
      test "single FIFO server" test_single_fifo_delay;
      test "work conservation" test_work_conservation;
      test "static priority preference" test_sp_preference;
      test "gps isolation" test_gps_isolation;
      test "edf meets deadlines" test_edf_meets_deadlines;
      test "bounds hold on tandem n=2" test_validation_small;
      test "bounds hold on tandem n=4" test_validation_medium;
      test "bounds hold on tandem n=6" test_validation_large;
      prop_validation_random_networks;
      test "bounds hold with staggered sources"
        test_validation_staggered_sources;
      test "bounds hold with on/off sources" test_validation_onoff_sources;
      test "decomposed output envelopes hold" test_decomposed_envelopes_hold;
      test "integrated output envelopes hold" test_integrated_envelopes_hold;
      test "envelope conformance detects violations"
        test_conforms_to_envelope_detects_violation;
    ] )
