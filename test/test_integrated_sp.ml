(* Tests for Algorithm Integrated on static-priority networks (the
   paper's Sec. 5 future-work extension). *)

open Testutil

let sp_tandem ?(peak = 1.) n u =
  Tandem.make ~n ~utilization:u ~peak
    ~discipline:Discipline.Static_priority ()

(* The network with every server re-typed as static priority and each
   flow given [priority f]. *)
let sp_retyped ~priority net =
  Network.make
    ~servers:
      (List.map
         (fun (s : Server.t) ->
           Server.make ~id:s.id ~name:s.name ~rate:s.rate
             ~discipline:Discipline.Static_priority ())
         (Network.servers net))
    ~flows:
      (List.map
         (fun (f : Flow.t) ->
           Flow.make ~id:f.id ~name:f.name ~arrival:f.arrival ~route:f.route
             ~priority:(priority f) ~weight:f.weight ())
         (Network.flows net))

(* Bit-exact comparison of two analyses of the same topology: delays,
   per-hop and per-server backlogs.  Returns the number of values
   compared. *)
let same_bounds label a b =
  let bits = Int64.bits_of_float in
  let checks = ref 0 in
  let same what x y =
    incr checks;
    if not (Int64.equal (bits x) (bits y)) then
      Alcotest.failf "%s: %s: %h against %h" label what x y
  in
  let net = Integrated.network a in
  List.iter
    (fun (f : Flow.t) ->
      same
        (Printf.sprintf "%s delay" f.name)
        (Integrated.flow_delay a f.id)
        (Integrated.flow_delay b f.id);
      List.iter
        (fun s ->
          same
            (Printf.sprintf "%s backlog at %d" f.name s)
            (Integrated.local_backlog a ~flow:f.id ~server:s)
            (Integrated.local_backlog b ~flow:f.id ~server:s))
        f.route)
    (Network.flows net);
  List.iter
    (fun (s : Server.t) ->
      same
        (Printf.sprintf "server %d backlog" s.id)
        (Integrated.server_backlog a s.id)
        (Integrated.server_backlog b s.id))
    (Network.servers net);
  !checks

(* A static-priority network whose flows all share one class is a FIFO
   network: the pass must give its one-class twin the FIFO bounds bit
   for bit — on the paper's tandem grid (both option sets) and on
   unit-rate random DAGs.  The claim is limited to unit-rate plants:
   a lone server is bounded by hdev through a pseudo-inverse at a
   static-priority server and by sup (agg - C t) / C at a FIFO one,
   which can differ in the last bits when the rates are
   heterogeneous. *)
let test_fifo_special_case () =
  let checks = ref 0 in
  let compare_on label ?options ~strategy net =
    checks :=
      !checks
      + same_bounds label
          (Integrated.analyze ?options ~strategy net)
          (Integrated.analyze ?options ~strategy
             (sp_retyped ~priority:(fun _ -> 0) net))
  in
  List.iter
    (fun (oname, options) ->
      List.iter
        (fun peak ->
          List.iter
            (fun sigma ->
              for n = 2 to 8 do
                for k = 1 to 9 do
                  let u = float_of_int k /. 10. in
                  let t = Tandem.make ~n ~utilization:u ~sigma ~peak () in
                  compare_on
                    (Printf.sprintf "tandem %s peak=%g sigma=%g n=%d U=%g"
                       oname peak sigma n u)
                    ~options ~strategy:(Pairing.Along_route 0) t.network
                done
              done)
            [ 1.; 2.; 4.; 8. ])
        [ 1.; infinity ])
    [ ("default", Options.default); ("link-cap", Options.sharpened) ];
  let tandem_checks = !checks in
  for seed = 1 to 30 do
    List.iter
      (fun utilization ->
        let net =
          Randomnet.generate
            {
              Randomnet.default with
              layers = 3 + (seed mod 3);
              per_layer = 2 + (seed mod 3);
              num_flows = 6 + (seed mod 11);
              utilization;
              seed;
            }
        in
        compare_on
          (Printf.sprintf "randomnet seed=%d U=%g" seed utilization)
          ~strategy:Pairing.Greedy net)
      [ 0.3; 0.6; 0.9 ]
  done;
  check_bool "tandem grid compared" true (tandem_checks > 0);
  check_bool "random nets compared" true (!checks > tandem_checks)

(* The blocking term models a lower-priority packet in service, so it
   exists only at static-priority servers: on FIFO networks it leaves
   every bound unchanged, as in Decomposed. *)
let test_blocking_only_at_sp_servers () =
  let blocking = Options.with_blocking 0.5 Options.default in
  List.iter
    (fun (n, u) ->
      let t = Tandem.make ~n ~utilization:u () in
      let strategy = Pairing.Along_route 0 in
      ignore
        (same_bounds
           (Printf.sprintf "FIFO tandem n=%d U=%g" n u)
           (Integrated.analyze ~strategy t.network)
           (Integrated.analyze ~options:blocking ~strategy t.network)))
    [ (2, 0.3); (3, 0.6); (5, 0.9) ];
  let net =
    Randomnet.generate
      { Randomnet.default with rate_spread = 0.2; utilization = 0.8 }
  in
  ignore
    (same_bounds "heterogeneous randomnet" (Integrated.analyze net)
       (Integrated.analyze ~options:blocking net))

let test_sp_beats_decomposed () =
  List.iter
    (fun (n, u) ->
      let t = sp_tandem n u in
      let dd = Decomposed.analyze t.network in
      let sp =
        Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network
      in
      List.iter
        (fun (f : Flow.t) ->
          check_bool
            (Printf.sprintf "%s: SP-integrated <= SP-decomposed (n=%d U=%g)"
               f.name n u)
            true
            (Integrated.flow_delay sp f.id
            <= Decomposed.flow_delay dd f.id +. 1e-9))
        (Network.flows t.network);
      check_bool "strictly better for conn0" true
        (Integrated.flow_delay sp 0 < Decomposed.flow_delay dd 0 -. 1e-6))
    [ (2, 0.3); (4, 0.6); (8, 0.9) ]

let test_priority_ordering () =
  (* In the SP tandem, urgent A-flows see (near) zero delay, conn0
     (middle priority) less than the background B-flows at comparable
     path lengths. *)
  let t = sp_tandem 4 0.7 in
  let sp = Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network in
  approx "urgent class alone sees no fluid delay" 0.
    (Integrated.flow_delay sp 1);
  (* conn0 (priority 1, 4 hops) vs B1 (priority 2, 3 hops). *)
  check_bool "middle class beats background on comparable paths" true
    (Integrated.flow_delay sp 0 /. 4.
    < Integrated.flow_delay sp 4 /. 3.)

let test_rejects_mixed_and_other () =
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.1 () in
  let mixed =
    Network.make
      ~servers:
        [
          Server.make ~id:0 ~rate:1. ();
          Server.make ~id:1 ~rate:1.
            ~discipline:Discipline.Static_priority ();
        ]
      ~flows:[ Flow.make ~id:0 ~arrival ~route:[ 0; 1 ] () ]
  in
  (try
     ignore (Integrated.analyze mixed);
     Alcotest.fail "expected Invalid_argument for mixed disciplines"
   with Invalid_argument _ -> ());
  let gps =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. ~discipline:Discipline.Gps () ]
      ~flows:[ Flow.make ~id:0 ~arrival ~route:[ 0 ] () ]
  in
  try
    ignore (Integrated.analyze gps);
    Alcotest.fail "expected Invalid_argument for GPS"
  with Invalid_argument _ -> ()

let test_blocking_increases_bounds () =
  let t = sp_tandem 4 0.6 in
  let plain =
    Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network
  in
  let blocked =
    Integrated.analyze
      ~options:(Options.with_blocking 0.5 Options.default)
      ~strategy:(Pairing.Along_route 0) t.network
  in
  List.iter
    (fun (f : Flow.t) ->
      check_bool (f.name ^ ": blocking never decreases the bound") true
        (Integrated.flow_delay blocked f.id
        >= Integrated.flow_delay plain f.id -. 1e-9))
    (Network.flows t.network)

let test_validation_against_simulator () =
  (* Non-preemptive packet SP simulator vs preemptive fluid analysis
     with the blocking term set to the packet size. *)
  let packet_size = 0.25 in
  let t = sp_tandem ~peak:infinity 3 0.7 in
  let net = t.network in
  let options = Options.with_blocking packet_size Options.default in
  let bounds_sp =
    Integrated.all_flow_delays
      (Integrated.analyze ~options ~strategy:(Pairing.Along_route 0) net)
  in
  let bounds_dd = Decomposed.all_flow_delays (Decomposed.analyze ~options net) in
  let config = { Sim.default_config with packet_size; horizon = 300. } in
  List.iter
    (fun (name, bounds) ->
      let reports = Validate.check ~config ~bounds net in
      List.iter
        (fun (r : Validate.report) ->
          check_bool
            (Printf.sprintf "%s bound holds for flow %d: %.3f <= %.3f + %.3f"
               name r.flow r.observed r.bound r.allowance)
            true (r.slack >= -1e-6))
        reports)
    [ ("sp-integrated", bounds_sp); ("sp-decomposed", bounds_dd) ]

let prop_sp_dominated_on_random_nets =
  qtest ~count:25 "SP-integrated <= SP-decomposed on random feedforward nets"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 2 8) (int_range 0 5_000))
    (fun (layers, num_flows, seed) ->
      let base =
        Randomnet.generate
          { Randomnet.default with layers; num_flows; seed; utilization = 0.7 }
      in
      (* Spread flow priorities deterministically. *)
      let net = sp_retyped ~priority:(fun (f : Flow.t) -> f.id mod 3) base in
      let dd = Decomposed.analyze net in
      let sp = Integrated.analyze ~strategy:Pairing.Greedy net in
      List.for_all
        (fun (f : Flow.t) ->
          Integrated.flow_delay sp f.id
          <= Decomposed.flow_delay dd f.id +. 1e-6)
        (Network.flows net))

let test_priority_demotion_hurts () =
  (* Demoting conn0 from middle to background priority can only
     increase (or keep) its bound. *)
  let bound priority =
    let base = sp_tandem 4 0.6 in
    let flows =
      List.map
        (fun (f : Flow.t) ->
          if f.id = 0 then
            Flow.make ~id:f.id ~name:f.name ~arrival:f.arrival ~route:f.route
              ~priority ()
          else f)
        (Network.flows base.network)
    in
    let net = Network.with_flows base.network flows in
    Integrated.flow_delay
      (Integrated.analyze ~strategy:(Pairing.Along_route 0) net)
      0
  in
  check_bool "demotion monotone" true (bound 3 >= bound 1 -. 1e-9);
  check_bool "promotion helps" true (bound 0 <= bound 1 +. 1e-9)

let suite =
  ( "integrated-sp",
    [
      test "FIFO special case equals Integrated" test_fifo_special_case;
      test "beats SP decomposition on the tandem" test_sp_beats_decomposed;
      test "priority ordering" test_priority_ordering;
      test "rejects mixed/unsupported disciplines"
        test_rejects_mixed_and_other;
      test "blocking applies only at static-priority servers"
        test_blocking_only_at_sp_servers;
      test "blocking term is monotone" test_blocking_increases_bounds;
      test "priority demotion monotone" test_priority_demotion_hurts;
      test "bounds hold against non-preemptive packet simulation"
        test_validation_against_simulator;
      prop_sp_dominated_on_random_nets;
    ] )
