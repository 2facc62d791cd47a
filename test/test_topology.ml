(* Tests for flows, servers, networks, the tandem generator and the
   random feedforward generator. *)

open Testutil

let flow id route =
  Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ()) ~route ()

let servers n = List.init n (fun id -> Server.make ~id ~rate:1. ())

let test_flow_accessors () =
  let f = flow 7 [ 3; 1; 4 ] in
  Alcotest.(check int) "first hop" 3 (Flow.first_hop f);
  Alcotest.(check (option int)) "next of 1" (Some 4) (Flow.next_hop f 1);
  Alcotest.(check (option int)) "next of 4" None (Flow.next_hop f 4);
  Alcotest.(check (option int)) "prev of 1" (Some 3) (Flow.prev_hop f 1);
  Alcotest.(check (option int)) "prev of 3" None (Flow.prev_hop f 3);
  Alcotest.(check (list (pair int int)))
    "hop pairs"
    [ (3, 1); (1, 4) ]
    (Flow.hop_pairs f)

let test_flow_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.1 () in
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[] ());
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[ 1; 2; 1 ] ());
  expect_invalid (fun () -> Flow.make ~id:0 ~arrival ~route:[ 1 ] ~weight:0. ());
  expect_invalid (fun () ->
      Flow.make ~id:0 ~arrival ~route:[ 1 ] ~deadline:(-1.) ())

let test_network_basics () =
  let net =
    Network.make ~servers:(servers 3)
      ~flows:[ flow 0 [ 0; 1; 2 ]; flow 1 [ 1; 2 ]; flow 2 [ 0 ] ]
  in
  Alcotest.(check int) "size" 3 (Network.size net);
  Alcotest.(check int) "flows at 1" 2 (List.length (Network.flows_at net 1));
  Alcotest.(check (list (pair int int)))
    "edges"
    [ (0, 1); (1, 2) ]
    (Network.edges net);
  Alcotest.(check (list int))
    "topological order" [ 0; 1; 2 ]
    (Network.topological_order net);
  check_bool "feedforward" true (Network.is_feedforward net);
  approx "utilization at 0" 0.2 (Network.utilization net 0);
  check_bool "stable" true (Network.stable net)

let test_network_cycle () =
  let net =
    Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 1 ]; flow 1 [ 1; 0 ] ]
  in
  check_bool "cyclic detected" false (Network.is_feedforward net);
  (try
     ignore (Network.topological_order net);
     Alcotest.fail "expected Cyclic"
   with Network.Cyclic -> ())

let test_network_validation () =
  (try
     ignore (Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 5 ] ]);
     Alcotest.fail "expected Invalid_argument for unknown server"
   with Invalid_argument _ -> ());
  let s = Server.make ~id:0 ~rate:1. () in
  try
    ignore (Network.make ~servers:[ s; s ] ~flows:[]);
    Alcotest.fail "expected Invalid_argument for duplicate id"
  with Invalid_argument _ -> ()

(* Unknown-id lookups raise a descriptive Invalid_argument rather than
   an ambient Not_found — a Not_found leaking out of a lookup is
   indistinguishable from deliberate control flow once it crosses a
   Par worker or the serve request loop.  [flow_opt] is the variant
   for callers that treat absence as data. *)
let test_lookup_errors () =
  let msg_contains msg sub =
    let nh = String.length msg and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub msg i nn = sub || go (i + 1)) in
    go 0
  in
  let net = Network.make ~servers:(servers 2) ~flows:[ flow 0 [ 0; 1 ] ] in
  (try
     ignore (Network.server net 9);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     check_bool "server error names the id" true (msg_contains msg "9"));
  (try
     ignore (Network.flow net 9);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     check_bool "flow error names the id" true (msg_contains msg "9"));
  check_bool "flow_opt: absent" true (Network.flow_opt net 9 = None);
  match Network.flow_opt net 0 with
  | Some f -> Alcotest.(check int) "flow_opt: present" 0 f.Flow.id
  | None -> Alcotest.fail "flow_opt lost an existing flow"

(* Servers sit in slots sorted by id, found by an identity check and
   then a binary search.  Sparse ids given out of order take the search
   path for every lookup; every accessor must still read by id. *)
let test_sparse_slots () =
  let server id = Server.make ~id ~rate:1. () in
  let net =
    Network.make
      ~servers:(List.map server [ 40; 3; 11; 10 ])
      ~flows:[ flow 0 [ 3; 11; 40 ]; flow 1 [ 10; 40 ]; flow 2 [ 10; 11 ] ]
  in
  let open Alcotest in
  let ids = List.map (fun (s : Server.t) -> s.id) in
  let at net sid = List.map (fun (f : Flow.t) -> f.id) (Network.flows_at net sid) in
  check (list int) "servers ascending" [ 3; 10; 11; 40 ] (ids (Network.servers net));
  check (list (list int)) "flows_at"
    [ [ 0 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] ]
    (List.map (at net) [ 3; 10; 11; 40 ]);
  check (list (list int)) "successors"
    [ [ 11 ]; [ 11; 40 ]; [ 40 ]; [] ]
    (List.map (Network.successors net) [ 3; 10; 11; 40 ]);
  check (list (pair int int)) "edges"
    [ (3, 11); (10, 11); (10, 40); (11, 40) ]
    (Network.edges net);
  check (list (list int)) "levels" [ [ 3; 10 ]; [ 11 ]; [ 40 ] ] (Network.levels net);
  check (list int) "topological order" [ 3; 10; 11; 40 ] (Network.topological_order net);
  check (list int) "topological order of a subset" [ 10; 11; 40 ]
    (Network.topological_order ~servers:[ 40; 11; 10 ] net);
  check int "server 11" 11 (Network.server net 11).id;
  List.iter
    (fun id ->
      (match Network.server net id with
      | _ -> failf "server %d: expected Invalid_argument" id
      | exception Invalid_argument _ -> ());
      check (list int) (Printf.sprintf "flows_at %d" id) [] (at net id);
      check (list int) (Printf.sprintf "successors %d" id) [] (Network.successors net id))
    [ -1; 0; 1; 2; 4; 5; 12; 39; 41; 2000 ];
  (* Updates copy the slot arrays: the value they were applied to reads
     as before. *)
  let added = Network.add_flow net (flow 3 [ 3; 10 ]) in
  let removed = Network.remove_flow added 2 in
  check (list int) "add_flow: old flows_at 10" [ 1; 2 ] (at net 10);
  check (list int) "add_flow: old successors 3" [ 11 ] (Network.successors net 3);
  check (list (list int)) "add_flow: old levels" [ [ 3; 10 ]; [ 11 ]; [ 40 ] ] (Network.levels net);
  check (list int) "add_flow: new flows_at 10" [ 1; 2; 3 ] (at added 10);
  check (list int) "add_flow: new successors 3" [ 10; 11 ] (Network.successors added 3);
  check (list (list int)) "add_flow: new levels"
    [ [ 3 ]; [ 10 ]; [ 11 ]; [ 40 ] ]
    (Network.levels added);
  check (list int) "remove_flow: old flows_at 10" [ 1; 2; 3 ] (at added 10);
  check (list int) "remove_flow: old successors 10" [ 11; 40 ] (Network.successors added 10);
  check (list int) "remove_flow: new flows_at 10" [ 1; 3 ] (at removed 10);
  check (list int) "remove_flow: new flows_at 11" [ 0 ] (at removed 11);
  check (list int) "remove_flow: new successors 10" [ 40 ] (Network.successors removed 10);
  check (list (pair int int)) "remove_flow: new edges"
    [ (3, 10); (3, 11); (10, 40); (11, 40) ]
    (Network.edges removed)

(* ------------------------------------------------------------------ *)
(* Persistent updates: add_flow / remove_flow = the bulk constructor  *)
(* ------------------------------------------------------------------ *)

let flow_ids = List.map (fun (f : Flow.t) -> f.id)

(* Every accessor of [actual] must read the same as on [expected] — the
   orders included (flows, flows_at, successors ascending, edges
   sorted), since the analyses iterate them. *)
let same_network msg ~ids expected actual =
  let per_server get =
    List.map
      (fun (s : Server.t) -> (s.id, get s.id))
      (Network.servers expected)
  in
  let at net sid = flow_ids (Network.flows_at net sid) in
  let open Alcotest in
  check (list int) (msg ^ ": flows") (flow_ids (Network.flows expected))
    (flow_ids (Network.flows actual));
  check (list (pair int (list int)))
    (msg ^ ": flows_at") (per_server (at expected)) (per_server (at actual));
  check (list (pair int (list int)))
    (msg ^ ": successors")
    (per_server (Network.successors expected))
    (per_server (Network.successors actual));
  check (list (pair int int)) (msg ^ ": edges") (Network.edges expected)
    (Network.edges actual);
  check (list int) (msg ^ ": topological order")
    (Network.topological_order expected)
    (Network.topological_order actual);
  check (list (list int)) (msg ^ ": levels") (Network.levels expected)
    (Network.levels actual);
  check int (msg ^ ": size") (Network.size expected) (Network.size actual);
  let lookups net =
    List.map
      (fun id -> Option.map (fun (f : Flow.t) -> f.id) (Network.flow_opt net id))
      ids
  in
  check (list (option int)) (msg ^ ": flow_opt") (lookups expected)
    (lookups actual)

let rebuilt net = Network.make ~servers:(Network.servers net) ~flows:(Network.flows net)

let expect_invalid_intact msg net f =
  let before = rebuilt net in
  (match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ());
  same_network (msg ^ " leaves the input intact") ~ids:(flow_ids (Network.flows before))
    before net

(* A seeded walk of updates over an edge-cloud corpus network: a
   quarter of its flows is held back as the candidate pool, each step
   adds a pool flow or removes a present one (base flows included, which
   then join the pool), and after every step the updated value is
   compared against Network.make over the same servers and flow list.
   The routes share some edges and own others outright, so the walk
   both drops edges (the removed flow was their only user) and keeps
   them (another flow still continues along them). *)
let test_updates_match_rebuild () =
  let net0 = Corpus.generate ~family:Corpus.Edge_cloud ~target_servers:200 ~seed:3 in
  let all = Network.flows net0 in
  let ids = flow_ids all in
  let held = List.filteri (fun i _ -> i mod 4 = 3) all in
  let net =
    ref
      (List.fold_left
         (fun net (f : Flow.t) -> Network.remove_flow net f.id)
         net0 held)
  in
  same_network "after holding back a quarter" ~ids
    (Network.make ~servers:(Network.servers net0)
       ~flows:(List.filteri (fun i _ -> i mod 4 <> 3) all))
    !net;
  let pool = ref held in
  let rng = Random.State.make [| 41 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let dropped = ref 0 and kept = ref 0 in
  for step = 1 to 200 do
    let present = Network.flows !net in
    if !pool <> [] && (present = [] || Random.State.bool rng) then begin
      let f = pick !pool in
      pool := List.filter (fun (g : Flow.t) -> g.id <> f.id) !pool;
      net := Network.add_flow !net f
    end
    else begin
      let f = pick present in
      net := Network.remove_flow !net f.id;
      pool := f :: !pool;
      List.iter
        (fun (a, b) ->
          if List.mem b (Network.successors !net a) then incr kept
          else incr dropped)
        (Flow.hop_pairs f)
    end;
    same_network (Printf.sprintf "step %d" step) ~ids (rebuilt !net) !net
  done;
  check_bool "some removal dropped its edge" true (!dropped > 0);
  check_bool "some removal kept a shared edge" true (!kept > 0);
  (* Bad updates raise before building anything. *)
  let present = Network.flows !net in
  let f = List.hd present in
  expect_invalid_intact "unknown route server" !net (fun () ->
      Network.add_flow !net
        (Flow.make ~id:100_000 ~arrival:f.arrival ~route:[ Flow.first_hop f; 99_999 ] ()));
  expect_invalid_intact "duplicate flow id" !net (fun () ->
      Network.add_flow !net (Flow.make ~id:f.id ~arrival:f.arrival ~route:f.route ()));
  expect_invalid_intact "remove an unknown id" !net (fun () ->
      Network.remove_flow !net 100_000)

(* The two edge cases by hand: removing the only flow on an edge drops
   the edge (and the server's emptied index entries); removing one of
   several users keeps it. *)
let test_remove_flow_edges () =
  let net =
    Network.make ~servers:(servers 4)
      ~flows:[ flow 0 [ 0; 1; 2 ]; flow 1 [ 1; 2 ]; flow 2 [ 2; 3 ] ]
  in
  let ids = [ 0; 1; 2 ] in
  let net1 = Network.remove_flow net 0 in
  Alcotest.(check (list (pair int int)))
    "sole user's edge goes, shared edge stays"
    [ (1, 2); (2, 3) ]
    (Network.edges net1);
  same_network "remove 0" ~ids (rebuilt net1) net1;
  let net2 = Network.remove_flow net1 2 in
  Alcotest.(check (list int)) "server 3 keeps no flows" [] (flow_ids (Network.flows_at net2 3));
  same_network "remove 2" ~ids (rebuilt net2) net2;
  same_network "re-add 0 appends" ~ids
    (Network.make ~servers:(servers 4) ~flows:[ flow 1 [ 1; 2 ]; flow 0 [ 0; 1; 2 ] ])
    (Network.add_flow net2 (flow 0 [ 0; 1; 2 ]));
  same_network "the input survives its updates" ~ids
    (Network.make ~servers:(servers 4)
       ~flows:[ flow 0 [ 0; 1; 2 ]; flow 1 [ 1; 2 ]; flow 2 [ 2; 3 ] ])
    net

let test_tandem_structure () =
  let n = 5 in
  let t = Tandem.make ~n ~utilization:0.6 () in
  let net = t.network in
  Alcotest.(check int) "server count" (3 * n) (Network.size net);
  Alcotest.(check int)
    "flow count (2n+1)"
    ((2 * n) + 1)
    (List.length (Network.flows net));
  Alcotest.(check (list int))
    "conn0 route" [ 0; 1; 2; 3; 4 ]
    t.conn0.route;
  (* Paper invariant: every middle port except the first carries 4
     connections. *)
  List.iteri
    (fun j sid ->
      let expected = if j = 0 then 3 else 4 in
      Alcotest.(check int)
        (Printf.sprintf "population of mid%d" j)
        expected
        (List.length (Network.flows_at net sid)))
    t.mid_servers;
  (* Internal links run at the requested utilization. *)
  List.iteri
    (fun j sid ->
      let expected = if j = 0 then 0.45 else 0.6 in
      approx (Printf.sprintf "utilization of mid%d" j) expected
        (Network.utilization net sid))
    t.mid_servers;
  check_bool "feedforward" true (Network.is_feedforward net);
  Alcotest.(check int) "cross flows" (2 * n)
    (List.length (List.filter (fun (f : Flow.t) -> f.id <> 0) (Network.flows net)))

let test_tandem_sources () =
  let t = Tandem.make ~n:3 ~utilization:0.8 ~sigma:2. () in
  List.iter
    (fun (f : Flow.t) ->
      let sigma, rho, peak = Arrival.token_params f.arrival in
      approx "sigma" 2. sigma;
      approx "rho = U/4" 0.2 rho;
      approx "peak" 1. peak)
    (Network.flows t.network)

let test_tandem_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Tandem.make ~n:1 ~utilization:0.5 ());
  expect_invalid (fun () -> Tandem.make ~n:4 ~utilization:1.2 ());
  expect_invalid (fun () -> Tandem.make ~n:4 ~utilization:0.5 ~sigma:0. ())

let test_randomnet () =
  let net = Randomnet.generate Randomnet.default in
  check_bool "feedforward" true (Network.is_feedforward net);
  check_bool "stable" true (Network.stable net);
  approx ~tol:1e-6 "max utilization hits target"
    Randomnet.default.utilization (Network.max_utilization net);
  (* Deterministic for a fixed seed. *)
  let net2 = Randomnet.generate Randomnet.default in
  Alcotest.(check (list (pair int int)))
    "deterministic" (Network.edges net) (Network.edges net2)

let prop_randomnet_always_feedforward =
  qtest ~count:50 "random networks are feedforward and stable"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 1 3) (int_range 1 12) (int_range 0 1000))
    (fun (layers, per_layer, num_flows, seed) ->
      let net =
        Randomnet.generate
          {
            Randomnet.default with
            layers;
            per_layer;
            num_flows;
            seed;
            utilization = 0.7;
          }
      in
      Network.is_feedforward net && Network.stable net)

let test_dot_export () =
  let t = Tandem.make ~n:2 ~utilization:0.5 () in
  let dot = Dot.to_dot t.network in
  check_bool "has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  check_bool "mentions an edge" true
    (let rec contains i =
       i + 9 <= String.length dot
       && (String.sub dot i 9 = " 0 -> 1 [" || contains (i + 1))
     in
     contains 0)

let suite =
  ( "topology",
    [
      test "flow accessors" test_flow_accessors;
      test "flow validation" test_flow_validation;
      test "network basics" test_network_basics;
      test "cycle detection" test_network_cycle;
      test "network validation" test_network_validation;
      test "lookup errors are descriptive" test_lookup_errors;
      test "sparse ids out of order: slot lookups" test_sparse_slots;
      test "add_flow/remove_flow = make (edge-cloud walk)"
        test_updates_match_rebuild;
      test "remove_flow drops only unused edges" test_remove_flow_edges;
      test "tandem structure (Fig. 3)" test_tandem_structure;
      test "tandem sources (Eq. 4)" test_tandem_sources;
      test "tandem validation" test_tandem_validation;
      test "random feedforward generator" test_randomnet;
      prop_randomnet_always_feedforward;
      test "dot export" test_dot_export;
    ] )
