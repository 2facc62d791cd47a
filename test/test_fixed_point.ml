(* Tests for the cyclic fixed-point engine and the ring generator. *)

open Testutil

let test_ring_structure () =
  let r = Ring.make ~n:4 ~hops:2 ~utilization:0.5 () in
  let net = r.network in
  Alcotest.(check int) "servers" 4 (Network.size net);
  check_bool "cyclic" false (Network.is_feedforward net);
  List.iter
    (fun (s : Server.t) -> approx "per-server load" 0.5 (Network.utilization net s.id))
    (Network.servers net)

let test_matches_decomposed_on_feedforward () =
  (* On a feedforward network the fixed point is the decomposition
     result.  Where the longest path is short the iteration reaches it
     before the stop rule fires, and every bound equals Decomposed's
     bit for bit. *)
  let bits = Int64.bits_of_float in
  let same label net =
    let dd = Decomposed.analyze net in
    let fp = Fixed_point.analyze net in
    check_bool (label ^ " converged") true (Fixed_point.converged fp);
    List.iter
      (fun (id, d) ->
        let e = Decomposed.flow_delay dd id in
        if not (Int64.equal (bits d) (bits e)) then
          Alcotest.failf "%s: flow %d: %h against decomposed %h" label id d e)
      (Fixed_point.all_flow_delays fp)
  in
  List.iter
    (fun n ->
      List.iter
        (fun u ->
          same
            (Printf.sprintf "tandem n=%d U=%g" n u)
            (Tandem.make ~n ~utilization:u ()).network)
        [ 0.3; 0.6; 0.9 ])
    [ 2; 4; 8 ];
  for seed = 1 to 5 do
    same
      (Printf.sprintf "randomnet seed %d" seed)
      (Randomnet.generate { Randomnet.default with seed })
  done;
  List.iter
    (fun family ->
      same (Corpus.to_string family)
        (Corpus.generate ~family ~target_servers:200 ~seed:3))
    [ Corpus.Leaf_spine; Corpus.Fat_tree; Corpus.Edge_cloud ]

let test_stops_below_decomposed_on_deep_dags () =
  (* A 200-server heavytail DAG is 44 levels deep, and the 1e-9 stop
     rule ends the iteration before the deepest levels settle.  The
     iterates grow monotonically from the optimistic seed, so the
     stopped bounds sit at or just below Decomposed's. *)
  let net =
    Corpus.generate ~family:Corpus.Heavytail ~target_servers:200 ~seed:1
  in
  let dd = Decomposed.analyze net in
  let fp = Fixed_point.analyze net in
  check_bool "converged" true (Fixed_point.converged fp);
  let below =
    List.fold_left
      (fun below (id, d) ->
        let e = Decomposed.flow_delay dd id in
        check_bool (Printf.sprintf "flow %d not above decomposed" id) true
          (d <= e);
        approx ~tol:1e-9 (Printf.sprintf "flow %d near decomposed" id) e d;
        if d < e then below + 1 else below)
      0 (Fixed_point.all_flow_delays fp)
  in
  check_bool "the stop rule fired before the fixed point" true (below > 0)

let test_ring_low_load_converges () =
  let r = Ring.make ~n:5 ~hops:3 ~utilization:0.3 () in
  let fp = Fixed_point.analyze r.network in
  check_bool "converged" true (Fixed_point.converged fp);
  List.iter
    (fun (f : Flow.t) ->
      let d = Fixed_point.flow_delay fp f.id in
      check_bool (f.name ^ " finite") true (Float.is_finite d);
      check_bool (f.name ^ " positive") true (d > 0.))
    (Network.flows r.network);
  (* Symmetry: all flows get the same bound. *)
  let ds =
    List.map (fun (_, d) -> d) (Fixed_point.all_flow_delays fp)
  in
  List.iter (fun d -> approx "symmetric" (List.hd ds) d) ds

let test_ring_high_load_diverges () =
  (* The decomposition fixed point on a ring blows up well below
     utilization 1 — the feedback effect the paper's Sec. 5 warns
     about.  For the symmetric ring the linearized burst recursion has
     spectral radius U (hops - 1) / 2, i.e. threshold 2/3 for 4 hops. *)
  let r = Ring.make ~n:6 ~hops:4 ~utilization:0.8 () in
  let fp = Fixed_point.analyze ~max_iter:400 r.network in
  check_bool "did not converge at U=0.8 (threshold 2/3)" false
    (Fixed_point.converged fp);
  approx "bounds are infinite" infinity (Fixed_point.flow_delay fp 0);
  (* Below the threshold the same ring converges, and the symmetric
     closed form d = hops^2 sigma / (1 - U (hops-1)/2) per flow is
     matched exactly. *)
  let r2 = Ring.make ~n:6 ~hops:4 ~utilization:0.5 () in
  let fp2 = Fixed_point.analyze ~max_iter:400 r2.network in
  check_bool "converged at U=0.5" true (Fixed_point.converged fp2);
  approx ~tol:1e-6 "symmetric closed form"
    (16. /. (1. -. (0.5 *. 1.5)))
    (Fixed_point.flow_delay fp2 0)

let test_convergence_monotone_in_load () =
  (* If the iteration converges at some load it converges at any lower
     load (checked on a small grid). *)
  let converges u =
    Fixed_point.converged
      (Fixed_point.analyze (Ring.make ~n:4 ~hops:2 ~utilization:u ()).network)
  in
  let grid = [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  let flags = List.map converges grid in
  let rec no_flip_back = function
    | a :: (b :: _ as rest) -> ((not b) || a) && no_flip_back rest
    | _ -> true
  in
  check_bool "convergence region is downward closed" true
    (no_flip_back (List.rev flags));
  check_bool "converges somewhere" true (List.hd flags)

let test_ring_bounds_hold_in_simulation () =
  let r = Ring.make ~n:4 ~hops:2 ~utilization:0.5 () in
  let net = r.network in
  let fp = Fixed_point.analyze net in
  check_bool "converged" true (Fixed_point.converged fp);
  let config = { Sim.default_config with packet_size = 0.2; horizon = 300. } in
  let reports =
    Validate.check ~config ~bounds:(Fixed_point.all_flow_delays fp) net
  in
  check_bool "no violations" true (Validate.violations reports = [])

let test_iterations_reported () =
  let t = Tandem.make ~n:3 ~utilization:0.5 () in
  let fp = Fixed_point.analyze t.network in
  check_bool "some iterations" true (Fixed_point.iterations fp >= 1);
  let r = Ring.make ~n:4 ~hops:2 ~utilization:0.6 () in
  let fp2 = Fixed_point.analyze r.network in
  check_bool "cyclic needs more rounds than tol-hit minimum" true
    (Fixed_point.iterations fp2 >= 2)

let suite =
  ( "fixed-point",
    [
      test "ring generator" test_ring_structure;
      test "equals decomposed on feedforward networks"
        test_matches_decomposed_on_feedforward;
      test "stops just below decomposed on deep DAGs"
        test_stops_below_decomposed_on_deep_dags;
      test "ring converges at low load" test_ring_low_load_converges;
      test "ring diverges at high load" test_ring_high_load_diverges;
      test "convergence region downward closed"
        test_convergence_monotone_in_load;
      test "ring bounds hold in simulation" test_ring_bounds_hold_in_simulation;
      test "iteration counts" test_iterations_reported;
    ] )
