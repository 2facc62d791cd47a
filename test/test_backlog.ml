(* Backlog bounds and buffer dimensioning. *)

open Testutil

let test_single_server_backlog () =
  let f =
    Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:3. ~rho:0.5 ())
      ~route:[ 0 ] ()
  in
  let net =
    Network.make ~servers:[ Server.make ~id:0 ~rate:1. () ] ~flows:[ f ]
  in
  let a = Decomposed.analyze net in
  approx "backlog = burst" 3. (Decomposed.server_backlog a 0);
  approx "busy period" 6. (Decomposed.server_busy_period a 0)

let test_backlog_grows_downstream () =
  (* Along the tandem the propagated envelopes get burstier, so buffer
     requirements at the middle ports grow with the hop index. *)
  let t = Tandem.make ~n:5 ~utilization:0.7 () in
  let a = Decomposed.analyze t.network in
  let backlogs = List.map (Decomposed.server_backlog a) t.mid_servers in
  let rec nondecreasing = function
    | x :: (y :: _ as rest) -> x <= y +. 1e-9 && nondecreasing rest
    | _ -> true
  in
  check_bool "nondecreasing along the chain" true
    (nondecreasing (List.tl backlogs));
  List.iter (fun b -> check_bool "finite" true (Float.is_finite b)) backlogs

let test_backlog_dominates_simulation () =
  let t = Tandem.make ~n:4 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let a = Decomposed.analyze net in
  let packet_size = 0.2 in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size; horizon = 300. } net
  in
  List.iter
    (fun (s : Server.t) ->
      let observed = Sim.server_max_backlog res s.id in
      let bound = Decomposed.server_backlog a s.id in
      (* Packetized arrivals are impulses: grant one packet per
         incoming link over the fluid envelope. *)
      let allowance =
        packet_size
        *. float_of_int (List.length (Network.flows_at net s.id))
      in
      check_bool
        (Printf.sprintf "backlog bound at %s: %.3f <= %.3f + %.3f" s.name
           observed bound allowance)
        true
        (observed <= bound +. allowance +. 1e-9))
    (Network.servers net)

let test_idle_server () =
  let net =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. (); Server.make ~id:1 ~rate:1. () ]
      ~flows:
        [
          Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ())
            ~route:[ 0 ] ();
        ]
  in
  let a = Decomposed.analyze net in
  approx "idle backlog" 0. (Decomposed.server_backlog a 1);
  approx "idle busy period" 0. (Decomposed.server_busy_period a 1)

let prop_backlog_at_least_delay_times_nothing =
  (* Classic relation at a constant-rate server: backlog = delay * rate
     for the FIFO aggregate bound (both are deviations of the same
     envelope). *)
  qtest "backlog = rate * delay at a FIFO server"
    QCheck2.Gen.(triple gen_burst (float_range 0.05 0.7) (float_range 0.5 3.))
    (fun (sigma, rho, rate) ->
      QCheck2.assume (rho < rate -. 1e-3);
      let agg = Pwl.affine ~y0:sigma ~slope:rho in
      let d = Fifo.local_delay ~rate ~agg in
      let b = Fifo.backlog ~rate ~agg in
      Float.abs (b -. (rate *. d)) <= 1e-6 *. Float.max 1. b)

let test_local_delay_bounds_dominate_simulation () =
  (* Finer-grained than the end-to-end check: the per-server local
     delay bound must dominate the worst simulated single-hop delay
     (one packet of store-and-forward allowance per hop). *)
  let t = Tandem.make ~n:4 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let a = Decomposed.analyze net in
  let packet_size = 0.2 in
  let res =
    Sim.run ~config:{ Sim.default_config with packet_size; horizon = 300. } net
  in
  List.iter
    (fun (s : Server.t) ->
      let observed = Sim.server_max_delay res s.id in
      let bound = Decomposed.server_delay a s.id in
      check_bool
        (Printf.sprintf "local bound at %s: %.3f <= %.3f + %.3f" s.name
           observed bound (packet_size /. s.rate))
        true
        (observed <= bound +. (packet_size /. s.rate) +. 1e-9))
    (Network.servers net)

let test_buffer_dimensioning_no_loss () =
  (* Provision every server's buffer at its backlog bound (plus the
     packetization grace): the simulation must drop nothing. *)
  let t = Tandem.make ~n:4 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let a = Decomposed.analyze net in
  let packet_size = 0.25 in
  let buffers =
    List.map
      (fun (s : Server.t) ->
        let grace =
          packet_size *. float_of_int (List.length (Network.flows_at net s.id))
        in
        (s.id, Decomposed.server_backlog a s.id +. grace))
      (Network.servers net)
  in
  let res =
    Sim.run
      ~config:{ Sim.default_config with packet_size; horizon = 300.; buffers }
      net
  in
  Alcotest.(check int) "zero drops with dimensioned buffers" 0
    (Sim.total_drops res)

let test_per_flow_refinement_hand_example () =
  (* Two token buckets through a rate-1 FIFO server.  The naive split
     min (alpha_1 (hdev agg beta)) (vdev agg beta) gives 4.6 for flow 1;
     the FIFO-age argument tightens it to 31/7 because at the time the
     queue peaks, flow 1's freshest queued bits are younger than the
     worst-case delay. *)
  let alpha1 = Pwl.affine ~y0:3. ~slope:0.2 in
  let alpha2 = Pwl.affine ~y0:5. ~slope:0.3 in
  let agg = Pwl.add alpha1 alpha2 in
  let beta = Pwl.affine ~y0:0. ~slope:1. in
  let refined = Deviation.vdev_per_flow ~alpha_i:alpha1 ~agg ~beta in
  let naive =
    Float.min
      (Pwl.eval alpha1 (Deviation.hdev ~alpha:agg ~beta))
      (Deviation.vdev ~alpha:agg ~beta)
  in
  approx ~tol:1e-9 "refined bound" (31. /. 7.) refined;
  approx ~tol:1e-9 "naive bound" 4.6 naive;
  check_bool "strictly tighter than the naive split" true
    (refined < naive -. 0.1)

let prop_per_flow_below_naive =
  qtest ~count:150 "per-flow refinement never exceeds the naive split"
    QCheck2.Gen.(triple gen_concave gen_concave gen_rate)
    (fun (alpha1, alpha2, rate) ->
      let agg = Pwl.add alpha1 alpha2 in
      let beta = Pwl.affine ~y0:0. ~slope:rate in
      let refined = Deviation.vdev_per_flow ~alpha_i:alpha1 ~agg ~beta in
      let vdev = Deviation.vdev ~alpha:agg ~beta in
      if not (Float.is_finite vdev) then
        (* Unstable aggregate: both bounds blow up. *)
        refined = infinity
      else
        let naive =
          Float.min (Pwl.eval alpha1 (Deviation.hdev ~alpha:agg ~beta)) vdev
        in
        refined <= naive +. 1e-6 *. Float.max 1. naive)

let test_per_flow_accessors_consistent () =
  (* The per-flow bounds partition consistently: each is at most the
     server aggregate bound, matches the local accessor, and the
     flow-level buffer need is the max over the route. *)
  let t = Tandem.make ~n:4 ~utilization:0.7 () in
  let net = t.network in
  let a = Decomposed.analyze net in
  List.iter
    (fun (s : Server.t) ->
      let b_agg = Decomposed.server_backlog a s.id in
      List.iter
        (fun (fid, b) ->
          check_bool
            (Printf.sprintf "flow %d at %s within aggregate" fid s.name)
            true
            (b <= b_agg +. 1e-9);
          approx
            (Printf.sprintf "accessors agree for flow %d at %s" fid s.name)
            b
            (Decomposed.local_backlog a ~flow:fid ~server:s.id))
        (Decomposed.server_flow_backlogs a s.id))
    (Network.servers net);
  List.iter
    (fun (f : Flow.t) ->
      let expected =
        List.fold_left
          (fun acc s ->
            Float.max acc (Decomposed.local_backlog a ~flow:f.id ~server:s))
          0. f.route
      in
      approx
        (Printf.sprintf "flow %d buffer need = max over route" f.id)
        expected
        (Decomposed.flow_backlog a f.id))
    (Network.flows net)

let test_backlog_dominates_random_dags () =
  (* Same soundness check as the tandem, on random feedforward DAGs. *)
  let packet_size = 0.05 in
  List.iter
    (fun seed ->
      let net =
        Randomnet.generate
          {
            Randomnet.default with
            layers = 3;
            per_layer = 2;
            num_flows = 6;
            utilization = 0.75;
            peak = infinity;
            seed;
          }
      in
      let a = Decomposed.analyze net in
      let res =
        Sim.run
          ~config:{ Sim.default_config with packet_size; horizon = 200. }
          net
      in
      List.iter
        (fun (s : Server.t) ->
          let observed = Sim.server_max_backlog res s.id in
          let bound = Decomposed.server_backlog a s.id in
          let allowance =
            packet_size
            *. float_of_int (List.length (Network.flows_at net s.id))
          in
          check_bool
            (Printf.sprintf "seed %d server %s: %.3f <= %.3f + %.3f" seed
               s.name observed bound allowance)
            true
            (observed <= bound +. allowance +. 1e-9))
        (Network.servers net))
    [ 1; 7; 42; 1999 ]

let test_undersized_buffers_drop () =
  let t = Tandem.make ~n:3 ~utilization:0.8 ~peak:infinity () in
  let net = t.network in
  let packet_size = 0.25 in
  (* First measure the real peaks, then provision at half of them. *)
  let free =
    Sim.run ~config:{ Sim.default_config with packet_size; horizon = 200. } net
  in
  let buffers =
    List.filter_map
      (fun (s : Server.t) ->
        let peak = Sim.server_max_backlog free s.id in
        if peak > packet_size then Some (s.id, peak /. 2.) else None)
      (Network.servers net)
  in
  let res =
    Sim.run
      ~config:{ Sim.default_config with packet_size; horizon = 200.; buffers }
      net
  in
  check_bool "halved buffers cause drops" true (Sim.total_drops res > 0)

(* Every (flow, server) hop of the network. *)
let hops net =
  List.concat_map
    (fun (f : Flow.t) -> List.map (fun s -> (f.id, s)) f.route)
    (Network.flows net)

(* Integrated's pass records what each per-flow split reads and runs
   none of them; the splits run when the backlogs are read, and an
   analysis keeps a backlog once it has computed it.  Counted in curve
   constructions, with the memo off so that each analysis is fresh. *)
let test_backlogs_on_first_read () =
  let made () = Metrics.value (Metrics.counter "pwl.make.calls") in
  let net = (Tandem.make ~n:8 ~utilization:0.6 ()).network in
  let hops = hops net in
  let read_all local_backlog =
    List.iter (fun (flow, server) -> ignore (local_backlog ~flow ~server)) hops
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  Incremental.with_enabled false @@ fun () ->
  let m0 = made () in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  ignore (Integrated.all_flow_delays integ);
  let pass = made () - m0 in
  let m1 = made () in
  read_all (Integrated.local_backlog integ);
  let first_read = made () - m1 in
  check_bool
    (Printf.sprintf "pass and delays (%d curves) < first backlog read (%d)"
       pass first_read)
    true (pass < first_read);
  let dd = Decomposed.analyze net in
  read_all (Decomposed.local_backlog dd);
  let m2 = made () in
  read_all (Integrated.local_backlog integ);
  read_all (Decomposed.local_backlog dd);
  Alcotest.(check int) "a second read makes no curve" 0 (made () - m2)

(* The network of [netcalc random --layers 200 --flows 1000], which
   once died where [Pwl.of_sampler]'s fixed tail probes collided on
   breakpoints past 2^53.  That command reads only delays, so the
   per-flow splits run here.  [Randomnet] draws from [Random.State],
   whose generator OCaml 5 replaced: the 2^53 breakpoints are only
   known to be reached with OCaml 5's, and the net (its hop count
   included) differs on 4.14. *)
let test_deep_random_backlogs () =
  let net =
    Randomnet.generate
      { Randomnet.default with seed = 42; num_flows = 1000; layers = 200;
        utilization = 0.6 }
  in
  let a = Integrated.analyze ~strategy:Pairing.Greedy net in
  let hops = hops net in
  check_bool "some hop to read" true (hops <> []);
  List.iter
    (fun (flow, server) ->
      let b = Integrated.local_backlog a ~flow ~server in
      if Float.is_nan b || b < 0. then
        Alcotest.failf "flow %d at server %d: backlog %g" flow server b)
    hops

let suite =
  ( "backlog",
    [
      test "single server" test_single_server_backlog;
      test "grows downstream" test_backlog_grows_downstream;
      test "dominates simulated backlog" test_backlog_dominates_simulation;
      test "local delay bounds dominate per-hop simulation"
        test_local_delay_bounds_dominate_simulation;
      test "idle server" test_idle_server;
      test "buffer dimensioning prevents loss"
        test_buffer_dimensioning_no_loss;
      test "undersized buffers drop" test_undersized_buffers_drop;
      prop_backlog_at_least_delay_times_nothing;
      test "per-flow refinement hand example"
        test_per_flow_refinement_hand_example;
      prop_per_flow_below_naive;
      test "per-hop backlogs computed on first read, then kept"
        test_backlogs_on_first_read;
      test "every per-hop backlog of a deep random net"
        test_deep_random_backlogs;
      test "per-flow accessors consistent" test_per_flow_accessors_consistent;
      test "dominates simulation on random DAGs"
        test_backlog_dominates_random_dags;
    ] )
