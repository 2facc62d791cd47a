(* Traffic contracts and the scenario file format. *)

open Testutil

let test_atm_cbr () =
  let a = Contracts.atm_cbr ~pcr:0.5 () in
  approx "burst = one cell" 1. (Arrival.burst a);
  approx "rate = pcr" 0.5 (Arrival.rate a);
  let jittery = Contracts.atm_cbr ~pcr:0.5 ~cdvt:2. () in
  approx "cdvt adds burst" 2. (Arrival.burst jittery)

let test_atm_vbr () =
  let a = Contracts.atm_vbr ~pcr:1. ~scr:0.25 ~mbs:5. () in
  (* Dual bucket: near 0 the PCR branch rules, long-run the SCR. *)
  approx "rate = scr" 0.25 (Arrival.rate a);
  approx "instant burst = one cell" 1. (Arrival.burst a);
  (* At the MBS point both constraints meet: mbs cells within
     (mbs-1)/pcr time. *)
  let t_mbs = 4. /. 1. in
  approx ~tol:1e-6 "mbs cells allowed at the knee" 5. (Arrival.eval a t_mbs);
  (try
     ignore (Contracts.atm_vbr ~pcr:0.2 ~scr:0.25 ~mbs:5. ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_intserv_tspec () =
  let a =
    Contracts.intserv_tspec ~peak:2. ~rate:0.5 ~bucket:10. ~max_packet:1.5
  in
  approx "burst = M" 1.5 (Arrival.burst a);
  approx "rate = r" 0.5 (Arrival.rate a);
  approx "peak region" (1.5 +. 4.) (Arrival.eval a 2.);
  approx "bucket region" (10. +. 10.) (Arrival.eval a 20.)

let sample_scenario =
  {|
# two switches, one video flow and one cross flow
server 0 rate=1
server 1 rate=1 disc=fifo name=core
flow 0 sigma=1 rho=0.15 peak=1 route=0,1 name=video deadline=9 buffer=4
flow 1 sigma=1 rho=0.2 route=0 priority=2 weight=0.5
|}

let test_parse () =
  let net = Scenario.parse sample_scenario in
  Alcotest.(check int) "servers" 2 (Network.size net);
  Alcotest.(check int) "flows" 2 (List.length (Network.flows net));
  let video = Network.flow net 0 in
  Alcotest.(check string) "name" "video" video.name;
  Alcotest.(check (option (float 1e-9))) "deadline" (Some 9.) video.deadline;
  Alcotest.(check (option (float 1e-9))) "buffer" (Some 4.) video.buffer;
  Alcotest.(check (list int)) "route" [ 0; 1 ] video.route;
  let sigma, rho, peak = Arrival.token_params video.arrival in
  approx "sigma" 1. sigma;
  approx "rho" 0.15 rho;
  approx "peak" 1. peak;
  let cross = Network.flow net 1 in
  Alcotest.(check int) "priority" 2 cross.priority;
  approx "weight" 0.5 cross.weight;
  Alcotest.(check string) "server name" "core" (Network.server net 1).name;
  (* The buffer budget survives the printer (all four deadline/buffer
     attribute combinations are exercised across the two flows). *)
  let net' = Scenario.parse (Scenario.to_string net) in
  Alcotest.(check (option (float 1e-9)))
    "buffer round-trips" (Some 4.) (Network.flow net' 0).buffer;
  Alcotest.(check (option (float 1e-9)))
    "absent buffer round-trips" None (Network.flow net' 1).buffer

let test_parse_errors () =
  let expect_error ?line content =
    try
      ignore (Scenario.parse content);
      Alcotest.fail "expected Parse_error"
    with Scenario.Parse_error (l, _) -> (
      match line with
      | Some expected -> Alcotest.(check int) "line" expected l
      | None -> ())
  in
  expect_error ~line:1 "server x rate=1";
  expect_error ~line:1 "server 0";
  expect_error ~line:1 "frobnicate 3";
  expect_error ~line:2 "server 0 rate=1\nflow 0 sigma=1 route=0";
  expect_error ~line:1 "server 0 rate=1 disc=wfq";
  (* semantic error from Network.make: unknown server in route *)
  expect_error "server 0 rate=1\nflow 0 sigma=1 rho=0.1 route=0,7"

let test_roundtrip () =
  let t = Tandem.make ~n:3 ~utilization:0.6 () in
  let net = t.network in
  let net' = Scenario.parse (Scenario.to_string net) in
  Alcotest.(check int) "servers" (Network.size net) (Network.size net');
  Alcotest.(check (list (pair int int)))
    "edges" (Network.edges net) (Network.edges net');
  (* Analyses agree on the round-tripped network. *)
  let d = Decomposed.flow_delay (Decomposed.analyze net) 0 in
  let d' = Decomposed.flow_delay (Decomposed.analyze net') 0 in
  approx "same decomposed bound" d d';
  let i =
    Integrated.flow_delay (Integrated.analyze ~strategy:(Pairing.Along_route 0) net) 0
  in
  let i' =
    Integrated.flow_delay
      (Integrated.analyze ~strategy:(Pairing.Along_route 0) net')
      0
  in
  approx "same integrated bound" i i'

let test_file_io () =
  let t = Ring.make ~n:3 ~hops:2 ~utilization:0.4 () in
  let path = Filename.temp_file "netcalc" ".scn" in
  Scenario.save path t.network;
  let net' = Scenario.load path in
  Sys.remove path;
  Alcotest.(check int) "servers" 3 (Network.size net')

let test_atm_scenario_analysis () =
  (* An ATM-flavored network built from contracts analyzes end to end. *)
  let servers = List.init 3 (fun id -> Server.make ~id ~rate:10. ()) in
  let flows =
    [
      Flow.make ~id:0 ~name:"vbr-video"
        ~arrival:(Contracts.atm_vbr ~pcr:4. ~scr:1. ~mbs:20. ())
        ~route:[ 0; 1; 2 ] ();
      Flow.make ~id:1 ~name:"cbr-voice"
        ~arrival:(Contracts.atm_cbr ~pcr:0.5 ())
        ~route:[ 0; 1 ] ();
      Flow.make ~id:2 ~name:"tspec-data"
        ~arrival:
          (Contracts.intserv_tspec ~peak:6. ~rate:2. ~bucket:12. ~max_packet:2.)
        ~route:[ 1; 2 ] ();
    ]
  in
  let net = Network.make ~servers ~flows in
  let dd = Decomposed.analyze net in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  List.iter
    (fun (f : Flow.t) ->
      let d = Decomposed.flow_delay dd f.id in
      let i = Integrated.flow_delay integ f.id in
      check_bool (f.name ^ " finite") true (Float.is_finite d);
      check_bool (f.name ^ " integrated wins or ties") true (i <= d +. 1e-9))
    flows

(* The repo's static-priority example: Integrated runs its
   static-priority pass on it, with finite bounds no worse than the
   decomposed ones. *)
let test_priority_plant_integrated () =
  let net = Scenario.load "../examples/scenarios/priority_plant.scn" in
  let integ = Engine.analyze net Engine.Integrated
  and dd = Engine.analyze net Engine.Decomposed in
  List.iter
    (fun (f : Flow.t) ->
      let i = Engine.flow_delay integ f.id in
      let d = Engine.flow_delay dd f.id in
      check_bool (f.name ^ " finite") true (Float.is_finite i);
      check_bool
        (Printf.sprintf "%s: integrated %g <= decomposed %g" f.name i d)
        true (i <= d))
    (Network.flows net)

let prop_roundtrip_random_networks =
  qtest ~count:30 "scenario round trip preserves analyses on random nets"
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (num_flows, seed) ->
      let net =
        Randomnet.generate
          { Randomnet.default with num_flows; seed; utilization = 0.7;
            rate_spread = 0.3 }
      in
      let net2 = Scenario.parse (Scenario.to_string net) in
      let d1 = Decomposed.all_flow_delays (Decomposed.analyze net) in
      let d2 = Decomposed.all_flow_delays (Decomposed.analyze net2) in
      List.for_all2
        (fun (i, a) (j, b) ->
          i = j && Float.abs (a -. b) <= 1e-6 *. Float.max 1. a)
        d1 d2)


let suite =
  ( "scenario",
    [
      test "atm cbr contract" test_atm_cbr;
      test "atm vbr contract" test_atm_vbr;
      test "intserv tspec" test_intserv_tspec;
      test "parse" test_parse;
      test "parse errors" test_parse_errors;
      test "round trip" test_roundtrip;
      prop_roundtrip_random_networks;
      test "file io" test_file_io;
      test "atm contracts analyze end to end" test_atm_scenario_analysis;
      test "priority plant: integrated within decomposed"
        test_priority_plant_integrated;
    ] )
