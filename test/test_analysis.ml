(* Tests for the analysis engines: Decomposed, Service Curve,
   Integrated (pairing + pair bound), FIFO-theta, admission control. *)

open Testutil

let tb ~sigma ~rho = Pwl.affine ~y0:sigma ~slope:rho

let tandem ?(peak = 1.) ?(sigma = 1.) n u =
  Tandem.make ~n ~utilization:u ~sigma ~peak ()

(* [Integrated.subnet_delays]' contract, for every flow: the subnets
   its route meets, in route order, which is also their pairing order,
   summing to [flow_delay] bit for bit. *)
let check_subnet_delays a =
  let net = Integrated.network a and pairing = Integrated.pairing a in
  List.iter
    (fun (f : Flow.t) ->
      let subnet_of s =
        List.find (fun p -> List.mem s (Pairing.servers_of p)) pairing
      in
      let rec dedup = function
        | a :: (b :: _ as rest) when a = b -> dedup rest
        | a :: rest -> a :: dedup rest
        | [] -> []
      in
      let on_route = dedup (List.map subnet_of f.route) in
      let got = Integrated.subnet_delays a f.id in
      check_bool "the subnets the route meets, in route order" true
        (List.map fst got = on_route);
      check_bool "route order is pairing order" true
        (on_route = List.filter (fun p -> List.mem p on_route) pairing);
      check_bool "they sum to flow_delay" true
        (Int64.equal
           (Int64.bits_of_float
              (List.fold_left (fun acc (_, d) -> acc +. d) 0. got))
           (Int64.bits_of_float (Integrated.flow_delay a f.id))))
    (Network.flows net)

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

(* Flow 1 rides 0 -> 2, which flow 0 also joins through 1: pairing
   (0, 2) would close a cycle through {1}, so 0 stays single. *)
let test_pairing_along_route_skips_cycle () =
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.05 () in
  let servers = List.init 3 (fun id -> Server.make ~id ~rate:1. ()) in
  let flows =
    [
      Flow.make ~id:0 ~arrival ~route:[ 0; 1; 2 ] ();
      Flow.make ~id:1 ~arrival ~route:[ 0; 2 ] ();
    ]
  in
  let net = Network.make ~servers ~flows in
  let strategy = Pairing.Along_route 1 in
  Alcotest.(check string)
    "pairing" "{0} {1} {2}"
    (Format.asprintf "%a" Pairing.pp (Pairing.build net strategy));
  let a = Integrated.analyze ~strategy net in
  List.iter
    (fun (_, d) -> check_bool "finite bound" true (Float.is_finite d))
    (Integrated.all_flow_delays a);
  let candidate = Flow.make ~id:2 ~arrival ~route:[ 0; 2 ] ~deadline:100. () in
  match
    Admission.decide_one ~strategy ~servers ~flows ~candidate
      ~method_:Engine.Integrated ()
  with
  | Admission.Accepted _ -> ()
  | Admission.Rejected r -> Alcotest.fail (Admission.reason_to_string r)

(* Whether contracting each subnet to one node leaves a cycle: a
   depth-first search over the subnet graph that meets a node still on
   its stack. *)
let contraction_has_cycle net subnets =
  let arr = Array.of_list subnets in
  let node = Hashtbl.create 16 in
  Array.iteri
    (fun i subnet ->
      List.iter (fun s -> Hashtbl.replace node s i) (Pairing.servers_of subnet))
    arr;
  let succ i =
    List.concat_map (Network.successors net) (Pairing.servers_of arr.(i))
    |> List.map (Hashtbl.find node)
    |> List.filter (fun j -> j <> i)
  in
  let state = Array.make (Array.length arr) `New in
  let rec visit i =
    state.(i) <- `On_stack;
    let cycle =
      List.exists
        (fun j ->
          match state.(j) with
          | `On_stack -> true
          | `New -> visit j
          | `Done -> false)
        (succ i)
    in
    state.(i) <- `Done;
    cycle
  in
  List.exists
    (fun i -> state.(i) = `New && visit i)
    (List.init (Array.length arr) Fun.id)

(* Greedy leaves both ends of an edge single only when contracting the
   edge into its pairing would close a cycle. *)
let prop_greedy_maximal =
  qtest ~count:60 "greedy leaves no admissible pair unpaired"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 1 4) (int_range 1 16)
        (int_range 0 10_000))
    (fun (layers, per_layer, num_flows, seed) ->
      let net =
        Randomnet.generate
          { Randomnet.default with layers; per_layer; num_flows; seed }
      in
      let p = Pairing.build net Pairing.Greedy in
      let single s = List.mem (Pairing.Single s) p in
      List.for_all
        (fun (u, v) ->
          (not (single u && single v))
          || contraction_has_cycle net
               (Pairing.Pair (u, v)
               :: List.filter
                    (fun s -> s <> Pairing.Single u && s <> Pairing.Single v)
                    p))
        (Network.edges net))

(* The Greedy, Singletons and Along_route (first flow) pairings, and the
   bit patterns of Integrated's (Greedy) delays, per-subnet delays and
   backlogs, as one digest. *)
let fingerprint net =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  List.iter
    (fun strategy ->
      match Pairing.build net strategy with
      | p -> add "%s\n" (Format.asprintf "%a" Pairing.pp p)
      | exception Network.Cyclic -> add "cyclic\n")
    [
      Pairing.Greedy;
      Pairing.Singletons;
      Pairing.Along_route (List.hd (Network.flows net)).id;
    ];
  let a = Integrated.analyze ~strategy:Pairing.Greedy net in
  List.iter
    (fun (f : Flow.t) ->
      add "f%d %s %s [%s] {%s}\n" f.id
        (bits (Integrated.flow_delay a f.id))
        (bits (Integrated.flow_backlog a f.id))
        (String.concat ","
           (List.map
              (fun s -> bits (Integrated.local_backlog a ~flow:f.id ~server:s))
              f.route))
        (String.concat ","
           (List.map
              (fun (subnet, d) ->
                Format.asprintf "%a:%s" Pairing.pp [ subnet ] (bits d))
              (Integrated.subnet_delays a f.id))))
    (Network.flows net);
  List.iter
    (fun (s : Server.t) ->
      add "s%d %s\n" s.id (bits (Integrated.server_backlog a s.id)))
    (Network.servers net);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [fingerprint]s of the tandems, which no random draw shapes, recorded
   with a reference implementation that re-sorted the whole contracted
   graph for each candidate pair and scanned the pairing for each
   flow's delay.  The search-based pairing and the per-hop contribution
   table must match it bit for bit. *)
let pinned_tandems =
  let tandem ?discipline n u digest =
    ( Printf.sprintf "tandem n=%d u=%g" n u,
      (Tandem.make ?discipline ~n ~utilization:u ()).network,
      digest )
  in
  [
    tandem 2 0.3 "e47b8d8926a2485d8082e48b00d15c80";
    tandem 4 0.6 "5da5fc1f61e77b2f8a198e200b7ab0fc";
    tandem 5 0.9 "9863252f1714c24ee2dff2e6e5fbaf76";
    tandem 8 0.6 "0fd3571a3dcb28306e5695947f34399a";
    tandem ~discipline:Discipline.Static_priority 4 0.6
      "6fc5eeb66fb822adcc3b577bbc29466b";
  ]

let test_pairing_fingerprints () =
  List.iter
    (fun (name, net, digest) ->
      Alcotest.(check string) name digest (fingerprint net))
    pinned_tandems

(* Kahn's order of the contracted graph, kept apart from [Network]'s:
   sources in list order, and the subnets a subnet releases, sorted,
   ahead of the ones ready before. *)
let reference_order net subnets =
  let arr = Array.of_list subnets in
  let node = Hashtbl.create 64 in
  Array.iteri
    (fun i subnet ->
      List.iter (fun s -> Hashtbl.replace node s i) (Pairing.servers_of subnet))
    arr;
  let edges =
    Network.edges net
    |> List.filter_map (fun (a, b) ->
           let i = Hashtbl.find node a and j = Hashtbl.find node b in
           if i = j then None else Some (i, j))
    |> List.sort_uniq compare
  in
  let indegree = Array.make (Array.length arr) 0 in
  List.iter (fun (_, j) -> indegree.(j) <- indegree.(j) + 1) edges;
  let rec go = function
    | [] -> []
    | i :: rest ->
        let released =
          List.filter
            (fun j ->
              indegree.(j) <- indegree.(j) - 1;
              indegree.(j) = 0)
            (List.filter_map
               (fun (a, j) -> if a = i then Some j else None)
               edges)
        in
        arr.(i) :: go (List.sort compare released @ rest)
  in
  go
    (List.filter
       (fun i -> indegree.(i) = 0)
       (List.init (Array.length arr) Fun.id))

(* [Pairing.build] as a re-check of the whole contraction for each
   candidate pair: the Greedy candidates of u are its unpaired
   successors, the most flows riding u -> v first, counted per edge
   over every flow. *)
let reference_pairing net strategy =
  let ids = List.map (fun (s : Server.t) -> s.id) (Network.servers net) in
  let singles_except covered =
    List.filter_map
      (fun s -> if List.mem s covered then None else Some (Pairing.Single s))
      ids
  in
  let with_singles chosen =
    chosen @ singles_except (List.concat_map Pairing.servers_of chosen)
  in
  let admissible chosen u v =
    not
      (contraction_has_cycle net
         (with_singles (Pairing.Pair (u, v) :: chosen)))
  in
  match strategy with
  | Pairing.Singletons -> reference_order net (with_singles [])
  | Pairing.Along_route id ->
      let route = (Network.flow net id).route in
      let rec walk chosen = function
        | u :: v :: rest when admissible chosen u v ->
            Pairing.Pair (u, v) :: walk (Pairing.Pair (u, v) :: chosen) rest
        | u :: rest -> Pairing.Single u :: walk chosen rest
        | [] -> []
      in
      reference_order net (walk [] route @ singles_except route)
  | Pairing.Greedy ->
      let riding u v =
        List.length
          (List.filter
             (fun (f : Flow.t) -> List.mem (u, v) (Flow.hop_pairs f))
             (Network.flows net))
      in
      let step chosen u =
        let paired = List.concat_map Pairing.servers_of chosen in
        if List.mem u paired then chosen
        else
          Network.edges net
          |> List.filter_map (fun (a, v) ->
                 if a = u && not (List.mem v paired) then Some v else None)
          |> List.stable_sort (fun v w -> compare (riding u w) (riding u v))
          |> List.find_opt (admissible chosen u)
          |> function
          | Some v -> Pairing.Pair (u, v) :: chosen
          | None -> chosen
      in
      let order =
        List.concat_map Pairing.servers_of
          (reference_order net (with_singles []))
      in
      reference_order net
        (reference_order net (with_singles (List.fold_left step [] order)))

(* Networks from the seeded generators.  Their shape follows the
   compiler's [Random], so they are checked against [reference_pairing]
   and the pairing-order sum of their subnet delays, not pinned. *)
let generated_nets =
  List.init 5 (fun i ->
      let seed = i + 1 in
      ( Printf.sprintf "randomnet seed=%d" seed,
        fun () ->
          Randomnet.generate
            {
              Randomnet.default with
              layers = 4;
              per_layer = 3;
              num_flows = 14;
              seed;
            }
      ))
  @ List.concat_map
      (fun family ->
        List.map
          (fun seed ->
            ( Printf.sprintf "%s 250 seed=%d" (Corpus.to_string family) seed,
              fun () -> Corpus.generate ~family ~target_servers:250 ~seed ))
          [ 1; 2 ])
      Corpus.all

let test_pairing_matches_reference () =
  List.iter
    (fun (name, mk) ->
      let net = mk () in
      List.iter
        (fun strategy ->
          let pp = Format.asprintf "%a" Pairing.pp in
          Alcotest.(check string)
            name
            (pp (reference_pairing net strategy))
            (pp (Pairing.build net strategy)))
        [
          Pairing.Greedy;
          Pairing.Singletons;
          Pairing.Along_route (List.hd (Network.flows net)).id;
        ];
      check_subnet_delays (Integrated.analyze ~strategy:Pairing.Greedy net))
    generated_nets

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
  expect_invalid "Integrated.subnet_delays unknown flow" (fun () ->
      Integrated.subnet_delays i 999);
  check_subnet_delays i;
  check_bool "some subnet is off-route for the through flow" true
    (List.compare_lengths (Integrated.subnet_delays i 0) (Integrated.pairing i)
    < 0)

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
  (match Integrated.subnet_delays integ 0 with
  | [ (Pairing.Pair (0, 1), d01); (Pairing.Pair (2, 3), d23) ] ->
      approx "contributions sum to the bound" (d01 +. d23)
        (Integrated.flow_delay integ 0)
  | _ -> Alcotest.fail "conn0 crosses the pairs (0, 1) and (2, 3)");
  check_subnet_delays integ;
  check_subnet_delays (Integrated.analyze ~strategy:Pairing.Greedy t.network)

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
    (fun (n, u, options) ->
      let t = tandem n u in
      let dsc =
        Service_curve_method.flow_delay
          (Service_curve_method.analyze (Decomposed.analyze ~options t.network))
          0
      in
      let dth =
        Fifo_theta.flow_delay
          (Fifo_theta.analyze (Decomposed.analyze ~options t.network))
          0
      in
      check_bool (Printf.sprintf "theta <= SFA at n=%d U=%g" n u) true
        (dth <= dsc +. 1e-9))
    (* On the three long tandems some theta vectors give no bound: past
       2^53 a member's breakpoints round together, and float noise can
       read a member as non-convex or the end-to-end curve as
       decreasing.  Those vectors bound nothing, and the tuning still
       returns a valid bound. *)
    [
      (2, 0.5, Options.default);
      (4, 0.8, Options.default);
      (6, 0.9, Options.default);
      (160, 0.9, Options.default);
      (250, 0.6, Options.default);
      (100, 0.8, Options.sharpened);
    ]

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
      test "pairing along route skips cycle-closing pairs"
        test_pairing_along_route_skips_cycle;
      prop_greedy_maximal;
      test "pairings and integrated bits pinned on tandems"
        test_pairing_fingerprints;
      test "pairings match a re-sorting reference on generated nets"
        test_pairing_matches_reference;
    ] )
