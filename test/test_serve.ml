(* The serve subsystem's contracts:

   - Admission.run is exactly a fold of Admission.decide_one, and
     rejections carry the reason (which flow would miss its deadline);
   - the delta engine's state after any admit/teardown churn is
     byte-identical (IEEE bits) to a from-scratch decomposed analysis
     of the same population, and a rejected admit rolls back
     bit-exactly;
   - the line protocol is deterministic: golden transcripts pin the
     exact response bytes, including the in-band error paths;
   - delta operations actually reuse out-of-cone state
     (reused_nodes > 0 on a tail admit). *)

open Testutil

let bits = Int64.bits_of_float

let same_bounds msg expected actual =
  Alcotest.(check (list (pair int int64)))
    msg
    (List.map (fun (id, d) -> (id, bits d)) expected)
    (List.map (fun (id, d) -> (id, bits d)) actual)

let tb ?peak ~sigma ~rho () = Arrival.token_bucket ?peak ~sigma ~rho ()

(* Fresh decomposed bounds: every analysis runs its own pass. *)
let scratch_bounds ~servers ~flows =
  Decomposed.all_flow_delays (Decomposed.analyze (Network.make ~servers ~flows))

(* ------------------------------------------------------------------ *)
(* Admission: decide_one vs run, rejection reasons                     *)
(* ------------------------------------------------------------------ *)

let tandem_parts n =
  let t = Tandem.make ~n ~utilization:0.6 () in
  (Network.servers t.Tandem.network, Network.flows t.Tandem.network)

let candidates_for n =
  List.init 6 (fun i ->
      let k = i mod (n - 1) in
      let deadline = if i mod 3 = 2 then 0.01 else 500. in
      Flow.make ~id:(1000 + i)
        ~arrival:(tb ~sigma:1. ~rho:0.02 ~peak:1. ())
        ~route:[ k; k + 1 ] ~deadline ())

let test_run_is_fold_of_decide_one () =
  let servers, base = tandem_parts 6 in
  let candidates = candidates_for 6 in
  let method_ = Engine.Decomposed in
  let outcome = Admission.run ~servers ~base ~candidates ~method_ () in
  let admitted_fold, rejected_fold =
    List.fold_left
      (fun (adm, rej) cand ->
        match
          Admission.decide_one ~servers ~flows:(base @ List.rev adm)
            ~candidate:cand ~method_ ()
        with
        | Admission.Accepted _ -> (cand :: adm, rej)
        | Admission.Rejected _ -> (adm, cand :: rej))
      ([], []) candidates
    |> fun (adm, rej) -> (List.rev adm, List.rev rej)
  in
  let ids = List.map (fun (f : Flow.t) -> f.id) in
  Alcotest.(check (list int))
    "admitted ids" (ids admitted_fold) (ids outcome.admitted);
  Alcotest.(check (list int))
    "rejected ids" (ids rejected_fold) (ids outcome.rejected);
  check_bool "some admitted" true (outcome.admitted <> []);
  check_bool "some rejected" true (outcome.rejected <> [])

let test_rejection_reasons () =
  let servers = List.init 2 (fun id -> Server.make ~id ~rate:1. ()) in
  let base =
    [ Flow.make ~id:0 ~arrival:(tb ~sigma:1. ~rho:0.2 ()) ~route:[ 0; 1 ]
        ~deadline:50. () ]
  in
  let mk ?deadline ~id ~route () =
    Flow.make ~id ~arrival:(tb ~sigma:1. ~rho:0.2 ()) ~route ?deadline ()
  in
  let decide cand =
    Admission.decide_one ~servers ~flows:base ~candidate:cand
      ~method_:Engine.Decomposed ()
  in
  (match decide (mk ~id:1 ~route:[ 0 ] ()) with
  | Admission.Rejected Admission.No_deadline -> ()
  | _ -> Alcotest.fail "expected No_deadline");
  (match decide (mk ~id:1 ~route:[ 1; 0 ] ~deadline:10. ()) with
  | Admission.Rejected Admission.Cyclic_route -> ()
  | _ -> Alcotest.fail "expected Cyclic_route");
  (* The candidate itself fits, but it pushes base flow 0 over its
     deadline: the report must name the violated flow, not just fail. *)
  let tight_base =
    [ Flow.make ~id:0 ~arrival:(tb ~sigma:1. ~rho:0.2 ()) ~route:[ 0; 1 ]
        ~deadline:2.1 () ]
  in
  match
    Admission.decide_one ~servers ~flows:tight_base
      ~candidate:(mk ~id:1 ~route:[ 0 ] ~deadline:100. ())
      ~method_:Engine.Decomposed ()
  with
  | Admission.Rejected (Admission.Deadline_violated { flow; bound; deadline })
    ->
      Alcotest.(check int) "violating flow" 0 flow;
      Alcotest.(check (float 1e-9)) "violating deadline" 2.1 deadline;
      check_bool "bound exceeds deadline" true (bound > deadline)
  | _ -> Alcotest.fail "expected Deadline_violated naming flow 0"

let test_buffer_violated_reason () =
  let servers = [ Server.make ~id:0 ~rate:1. () ] in
  let base =
    [ Flow.make ~id:0 ~arrival:(tb ~sigma:1. ~rho:0.2 ()) ~route:[ 0 ] () ]
  in
  let mk buffer =
    Flow.make ~id:1 ~arrival:(tb ~sigma:1. ~rho:0.2 ()) ~route:[ 0 ]
      ~deadline:100. ~buffer ()
  in
  let decide cand =
    Admission.decide_one ~servers ~flows:base ~candidate:cand
      ~method_:Engine.Decomposed ()
  in
  (match decide (mk 5.) with
  | Admission.Accepted _ -> ()
  | Admission.Rejected _ -> Alcotest.fail "generous budget must be accepted");
  match decide (mk 0.5) with
  | Admission.Rejected
      (Admission.Buffer_violated { flow; server; backlog; buffer }) ->
      Alcotest.(check int) "violating flow" 1 flow;
      Alcotest.(check int) "violating server" 0 server;
      Alcotest.(check (float 1e-9)) "budget" 0.5 buffer;
      check_bool "backlog exceeds budget" true (backlog > buffer)
  | _ -> Alcotest.fail "expected Buffer_violated naming flow 1"

(* ------------------------------------------------------------------ *)
(* Delta engine: determinism under churn, rollback, reuse              *)
(* ------------------------------------------------------------------ *)

let check_matches_scratch msg e =
  let net = Delta_engine.network e in
  same_bounds msg
    (scratch_bounds ~servers:(Network.servers net) ~flows:(Network.flows net))
    (Delta_engine.all_flow_delays e);
  (* Backlog accessors must agree bit-for-bit too: per-server aggregate
     bounds, the per-flow split at every server, and the flow-level
     buffer needs. *)
  let a =
    Decomposed.analyze
      (Network.make ~servers:(Network.servers net) ~flows:(Network.flows net))
  in
  List.iter
    (fun (s : Server.t) ->
      Alcotest.(check int64)
        (Printf.sprintf "%s: server %d backlog bits" msg s.id)
        (bits (Decomposed.server_backlog a s.id))
        (bits (Delta_engine.server_backlog e s.id));
      same_bounds
        (Printf.sprintf "%s: server %d per-flow backlogs" msg s.id)
        (Decomposed.server_flow_backlogs a s.id)
        (Delta_engine.server_flow_backlogs e s.id))
    (Network.servers net);
  same_bounds
    (Printf.sprintf "%s: flow buffer needs" msg)
    (List.map
       (fun (f : Flow.t) -> (f.id, Decomposed.flow_backlog a f.id))
       (Network.flows net))
    (List.map
       (fun (f : Flow.t) -> (f.id, Delta_engine.flow_backlog e f.id))
       (Network.flows net))

let test_churn_determinism () =
  let servers, base = tandem_parts 8 in
  let e = Delta_engine.create ~servers ~flows:base () in
  let admitted = Queue.create () in
  for i = 0 to 39 do
    let k = 6 - (i mod 3) in
    let cand =
      Flow.make ~id:(2000 + i)
        ~arrival:(tb ~sigma:1. ~rho:0.01 ~peak:1. ())
        ~route:[ k; k + 1 ]
        ~deadline:(if i mod 7 = 3 then 1e-3 else 1000.)
        ()
    in
    (match Delta_engine.admit e cand with
    | Delta_engine.Admitted _ -> Queue.add cand.Flow.id admitted
    | Delta_engine.Rejected _ -> ());
    if Queue.length admitted > 5 then
      match Delta_engine.teardown e (Queue.pop admitted) with
      | Ok _ -> ()
      | Error `Unknown_flow -> Alcotest.fail "teardown of admitted flow"
  done;
  check_bool "churn admitted flows" true (Queue.length admitted > 0);
  check_matches_scratch "post-churn bounds = from-scratch analysis" e

let test_rollback_bit_exact () =
  let servers, base = tandem_parts 6 in
  let e = Delta_engine.create ~servers ~flows:base () in
  let before = Delta_engine.all_flow_delays e in
  let cand =
    Flow.make ~id:3000
      ~arrival:(tb ~sigma:1. ~rho:0.02 ~peak:1. ())
      ~route:[ 0; 1 ] ~deadline:1e-4 ()
  in
  (match Delta_engine.admit e cand with
  | Delta_engine.Rejected
      { reason = Admission.Deadline_violated { flow; _ }; _ } ->
      Alcotest.(check int) "candidate is the violator" 3000 flow
  | _ -> Alcotest.fail "expected a deadline rejection");
  same_bounds "rejected admit leaves state bit-identical" before
    (Delta_engine.all_flow_delays e);
  check_matches_scratch "rolled-back state = from-scratch analysis" e

let test_delta_matches_decide_one () =
  let servers, base = tandem_parts 6 in
  let e = Delta_engine.create ~servers ~flows:base () in
  List.iter
    (fun cand ->
      let flows_now = Network.flows (Delta_engine.network e) in
      let batch =
        Admission.decide_one ~servers ~flows:flows_now ~candidate:cand
          ~method_:Engine.Decomposed ()
      in
      match (Delta_engine.admit e cand, batch) with
      | Delta_engine.Admitted { bound; _ }, Admission.Accepted { bounds; _ } ->
          Alcotest.(check int64)
            "admitted bound matches batch analysis"
            (bits (List.assoc cand.Flow.id bounds))
            (bits bound)
      | Delta_engine.Rejected _, Admission.Rejected _ -> ()
      | Delta_engine.Admitted _, Admission.Rejected _ ->
          Alcotest.fail "delta admitted what batch rejected"
      | Delta_engine.Rejected _, Admission.Accepted _ ->
          Alcotest.fail "delta rejected what batch admitted")
    (candidates_for 6)

let test_tail_admit_reuses () =
  let servers, base = tandem_parts 8 in
  let e = Delta_engine.create ~servers ~flows:base () in
  let cand =
    Flow.make ~id:4000
      ~arrival:(tb ~sigma:1. ~rho:0.01 ~peak:1. ())
      ~route:[ 6; 7 ] ~deadline:1000. ()
  in
  match Delta_engine.admit e cand with
  | Delta_engine.Admitted { stats; _ } ->
      check_bool "tail cone is a strict subset" true
        (stats.reused_nodes > 0
        && stats.cone_nodes + stats.reused_nodes = 3 * 8);
      check_matches_scratch "delta admit = from-scratch analysis" e
  | Delta_engine.Rejected _ -> Alcotest.fail "tail admit should fit"

(* The tandem churn above reuses existing edges; on an edge-cloud
   corpus network most routes own some edges outright, so admits create
   routing-DAG edges and teardowns remove them.  Candidates come from a
   held-back quarter of the generated flows; the oldest admitted flow
   is torn down once more than 8 are live, and 1 admit in 4 carries a
   deadline no queued flow meets, so rollback runs too. *)
let test_corpus_churn_matches_scratch () =
  let net = Corpus.generate ~family:Corpus.Edge_cloud ~target_servers:200 ~seed:5 in
  let servers = Network.servers net in
  let base = List.filteri (fun i _ -> i mod 4 <> 3) (Network.flows net) in
  let held = List.filteri (fun i _ -> i mod 4 = 3) (Network.flows net) in
  let e = Delta_engine.create ~servers ~flows:base () in
  let rng = Random.State.make [| 17 |] in
  let free = ref held and live = Queue.create () in
  let ops = ref 0 and rejects = ref 0 in
  let edges_added = ref 0 and edges_removed = ref 0 in
  let edge_count () = List.length (Network.edges (Delta_engine.network e)) in
  let op f =
    let before = edge_count () in
    f ();
    let after = edge_count () in
    if after > before then incr edges_added;
    if after < before then incr edges_removed;
    incr ops;
    if !ops mod 25 = 0 then
      check_matches_scratch (Printf.sprintf "corpus churn, op %d" !ops) e
  in
  while !ops < 100 do
    let (f : Flow.t) = List.nth !free (Random.State.int rng (List.length !free)) in
    let deadline = if Random.State.int rng 4 = 0 then 1e-6 else 1e9 in
    let cand =
      Flow.make ~id:f.id ~name:f.name ~arrival:f.arrival ~route:f.route
        ~deadline ~priority:f.priority ~weight:f.weight ?buffer:f.buffer ()
    in
    op (fun () ->
        match Delta_engine.admit e cand with
        | Delta_engine.Admitted _ ->
            free := List.filter (fun (g : Flow.t) -> g.id <> f.id) !free;
            Queue.add f live
        | Delta_engine.Rejected _ -> incr rejects);
    if Queue.length live > 8 then
      op (fun () ->
          let (old : Flow.t) = Queue.pop live in
          match Delta_engine.teardown e old.id with
          | Ok _ -> free := old :: !free
          | Error `Unknown_flow -> Alcotest.fail "teardown of admitted flow")
  done;
  check_matches_scratch "corpus churn, end" e;
  check_bool "some admits rolled back" true (!rejects > 0);
  check_bool "admits created edges" true (!edges_added > 0);
  check_bool "teardowns removed edges" true (!edges_removed > 0)

(* Churn through a multi-hop unstable server.  A base flow overloads
   tandem server 2, so every hop downstream of it is poisoned; each
   cone recompute must drop exactly the poison marks whose origin it
   re-runs and re-derive them, keeping the marks inherited from
   upstream.  The state must match a from-scratch analysis after every
   operation: admits upstream of the overload (whose cones contain
   it), rejected admits into the poisoned region (rolled back),
   teardowns, the overloader's own teardown, and a rejected admit that
   would overload server 2 again. *)
let test_churn_through_unstable_server () =
  let servers, base = tandem_parts 6 in
  let overloader =
    Flow.make ~id:900 ~arrival:(tb ~sigma:1. ~rho:0.9 ~peak:1. ())
      ~route:[ 2; 3 ] ()
  in
  let e = Delta_engine.create ~servers ~flows:(base @ [ overloader ]) () in
  let unbounded_states = ref 0 and bounded_states = ref 0 in
  let check msg =
    check_matches_scratch msg e;
    if List.exists (fun (_, d) -> not (Float.is_finite d))
         (Delta_engine.all_flow_delays e)
    then incr unbounded_states
    else incr bounded_states
  in
  let cand ?(rho = 0.02) id route =
    Flow.make ~id ~arrival:(tb ~sigma:1. ~rho ~peak:1. ()) ~route
      ~deadline:1e9 ()
  in
  let admit ~expect (c : Flow.t) =
    let admitted =
      match Delta_engine.admit e c with
      | Delta_engine.Admitted _ -> true
      | Delta_engine.Rejected _ -> false
    in
    check_bool (Printf.sprintf "admit %d decided" c.id) expect admitted;
    check (Printf.sprintf "after admit %d" c.id)
  in
  let teardown id =
    (match Delta_engine.teardown e id with
    | Ok _ -> ()
    | Error `Unknown_flow -> Alcotest.failf "teardown of %d" id);
    check (Printf.sprintf "after teardown %d" id)
  in
  check "created over an overloaded server";
  (* Server 2 overloaded: routes upstream of it fit, routes into the
     poisoned region are rejected and rolled back. *)
  admit ~expect:true (cand 3000 [ 0; 1 ]);
  admit ~expect:false (cand 3001 [ 3; 4 ]);
  admit ~expect:true (cand 3002 [ 1; 7 ]);
  admit ~expect:false (cand 3003 [ 1; 2 ]);
  admit ~expect:false (cand 3004 [ 4; 5 ]);
  teardown 3000;
  admit ~expect:true (cand 3005 [ 0; 6 ]);
  admit ~expect:false (cand 3006 [ 2; 8 ]);
  teardown 3002;
  admit ~expect:true (cand 3007 [ 0; 1 ]);
  (* The overloader leaves: the whole downstream becomes bounded. *)
  teardown 900;
  admit ~expect:true (cand 3008 [ 3; 4 ]);
  admit ~expect:true (cand 3009 [ 4; 5 ]);
  admit ~expect:false (cand ~rho:0.9 3010 [ 2; 3 ]);
  admit ~expect:true (cand 3011 [ 2; 8 ]);
  teardown 3005;
  teardown 3008;
  admit ~expect:true (cand 3012 [ 1; 2 ]);
  teardown 3007;
  teardown 3009;
  check_bool "states with infinite bounds checked" true (!unbounded_states > 5);
  check_bool "states without them checked" true (!bounded_states > 5)

(* A write must cost O(cone), not O(network): the same tail admit and
   teardown (cone 7) on an 8-hop and a 64-hop tandem must allocate
   about the same.  Whole-network bookkeeping per write (rebuilding
   the network, its successor map, scanning every flow) made the
   64-hop write allocate several times more.  Past 64 hops the
   tandem's decomposed bound outgrows the deadline and the admit is
   rejected, so this stays at 64. *)
let test_write_allocation_is_cone_bound () =
  let write_words n =
    let servers, base = tandem_parts n in
    let e = Delta_engine.create ~servers ~flows:base () in
    let cand =
      Flow.make ~id:5000
        ~arrival:(tb ~sigma:1. ~rho:0.01 ~peak:1. ())
        ~route:[ n - 2; n - 1 ] ~deadline:1e9 ()
    in
    let w0 = Gc.minor_words () in
    let cone =
      match Delta_engine.admit e cand with
      | Delta_engine.Admitted { stats; _ } -> stats.cone_nodes
      | Delta_engine.Rejected _ -> Alcotest.failf "tail admit at n = %d" n
    in
    (match Delta_engine.teardown e cand.id with
    | Ok _ -> ()
    | Error `Unknown_flow -> Alcotest.fail "teardown of the admitted flow");
    (cone, Gc.minor_words () -. w0)
  in
  let cone8, small = write_words 8 in
  let cone64, large = write_words 64 in
  Alcotest.(check int) "same cone at both sizes" cone8 cone64;
  if large >= 1.5 *. small then
    Alcotest.failf "n = 64 write allocates %.0f words, n = 8 %.0f (%.1fx)"
      large small (large /. small)

(* ------------------------------------------------------------------ *)
(* Sjson                                                               *)
(* ------------------------------------------------------------------ *)

let test_sjson_roundtrip () =
  let doc =
    Sjson.Obj
      [
        ("a", Sjson.Num 1.);
        ("b", Sjson.List [ Sjson.Bool true; Sjson.Null; Sjson.Str "x\"\n" ]);
        ("c", Sjson.Num 0.1);
        ("inf", Sjson.float_repr infinity);
        ("ninf", Sjson.float_repr neg_infinity);
      ]
  in
  let s = Sjson.render doc in
  Alcotest.(check string)
    "deterministic rendering"
    {|{"a":1,"b":[true,null,"x\"\n"],"c":0.1,"inf":"inf","ninf":"-inf"}|} s;
  Alcotest.(check string) "render/parse fixpoint" s (Sjson.render (Sjson.parse s))

let test_sjson_float_bits () =
  List.iter
    (fun x ->
      match Sjson.parse (Sjson.render (Sjson.Num x)) with
      | Sjson.Num y ->
          Alcotest.(check int64)
            (Printf.sprintf "float %h round-trips" x)
            (bits x) (bits y)
      | _ -> Alcotest.fail "expected a number")
    [ 0.; 1.; -1.5; 0.1; 1. /. 3.; 2.5499999999999994; 1e-300; 9.1941176470588228 ]

let test_sjson_errors () =
  List.iter
    (fun s ->
      match Sjson.parse s with
      | exception Sjson.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error on %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated";
      "{\"a\":1} trailing"; "\"bad \\q escape\"";
      "{\"a\":1,\"b\":2,\"a\":3}"; "[{\"x\":{\"k\":1,\"k\":1}}]" ]

(* ------------------------------------------------------------------ *)
(* Line protocol: golden transcript                                    *)
(* ------------------------------------------------------------------ *)

(* One server of rate 1; token buckets with sigma 1, rho 0.1 give the
   FIFO bound (number of flows) * sigma exactly, so every response
   byte below is stable arithmetic. *)
let golden_server () =
  Serve.create ~mode:Serve.Delta
    ~servers:[ Server.make ~id:0 ~rate:1. () ]
    ~flows:[] ()

let golden_transcript =
  [
    ( {|{"op":"admit","flow":{"id":1,"sigma":1,"rho":0.1,"route":[0],"deadline":5}}|},
      {|{"ok":true,"op":"admit","flow":1,"bound":1,"backlog":1,"cone_nodes":1,"reused_nodes":0}|}
    );
    ( {|{"op":"admit","flow":{"id":2,"sigma":1,"rho":0.1,"route":[0],"deadline":5}}|},
      {|{"ok":true,"op":"admit","flow":2,"bound":2,"backlog":1.1111111111111112,"cone_nodes":1,"reused_nodes":0}|}
    );
    ( {|{"op":"admit","flow":{"id":3,"sigma":1,"rho":0.1,"route":[0],"deadline":2.5}}|},
      {|{"ok":false,"op":"admit","flow":3,"error":"rejected","reason":"deadline_violated","violating_flow":3,"violating_bound":3,"violating_deadline":2.5,"cone_nodes":1,"reused_nodes":0}|}
    );
    ( {|{"op":"query","flow":1}|},
      {|{"ok":true,"op":"query","flow":1,"bound":2,"backlog":1.1111111111111112,"deadline":5,"buffer":null,"route":[0]}|} );
    ( {|{"op":"admit","flow":{"id":1,"sigma":1,"rho":0.1,"route":[0],"deadline":5}}|},
      {|{"ok":false,"op":"admit","flow":1,"error":"duplicate_flow"}|} );
    ( {|{"op":"admit","flow":{"id":9,"sigma":1,"rho":0.1,"route":[0]}}|},
      {|{"ok":false,"op":"admit","flow":9,"error":"rejected","reason":"no_deadline","cone_nodes":0,"reused_nodes":1}|}
    );
    ( {|{"op":"teardown","flow":2}|},
      {|{"ok":true,"op":"teardown","flow":2,"cone_nodes":1,"reused_nodes":0}|} );
    ( {|{"op":"query","flow":1}|},
      {|{"ok":true,"op":"query","flow":1,"bound":1,"backlog":1,"deadline":5,"buffer":null,"route":[0]}|} );
    ( {|{"op":"teardown","flow":2}|},
      {|{"ok":false,"op":"teardown","flow":2,"error":"unknown_flow"}|} );
    ( {|{"op":"query","flow":77}|},
      {|{"ok":false,"op":"query","flow":77,"error":"unknown_flow"}|} );
    ( {|this is not json|},
      {|{"ok":false,"error":"parse_error","detail":"at 0: expected true"}|}
    );
    ( {|{"op":"frobnicate"}|},
      {|{"ok":false,"error":"unknown_op","detail":"frobnicate"}|} );
    ( {|{"op":"admit"}|},
      {|{"ok":false,"error":"bad_request","detail":"missing \"flow\" field"}|} );
    ( {|{"op":"admit","flow":{"id":8,"route":[0],"deadline":5}}|},
      {|{"ok":false,"error":"bad_request","detail":"missing or invalid \"sigma\" field"}|}
    );
    ( {|{"op":"teardown"}|},
      {|{"ok":false,"error":"bad_request","detail":"missing or invalid \"flow\" field"}|}
    );
    ( {|{"nop":1}|},
      {|{"ok":false,"error":"bad_request","detail":"missing or invalid \"op\" field"}|}
    );
    ( {|{"op":"stats"}|},
      {|{"ok":true,"op":"stats","engine":"delta","curve_backend":"pwl","servers":1,"flows":1,"admitted_rate":0.1,"admits":2,"rejects":2,"teardowns":1,"cone_nodes":4,"reused_nodes":1}|}
    );
    (* Buffer-constrained admission: flow 10's budget covers its backlog
       bound; flow 11's does not, and the rejection names the flow, the
       hop, and both sides of the comparison. *)
    ( {|{"op":"admit","flow":{"id":10,"sigma":1,"rho":0.1,"route":[0],"deadline":50,"buffer":2}}|},
      {|{"ok":true,"op":"admit","flow":10,"bound":2,"backlog":1.1111111111111112,"cone_nodes":1,"reused_nodes":0}|}
    );
    ( {|{"op":"admit","flow":{"id":11,"sigma":1,"rho":0.1,"route":[0],"deadline":50,"buffer":0.5}}|},
      {|{"ok":false,"op":"admit","flow":11,"error":"rejected","reason":"buffer_violated","violating_flow":11,"violating_server":0,"violating_backlog":1.2499999999999998,"violating_buffer":0.5,"cone_nodes":1,"reused_nodes":0}|}
    );
    ( {|{"op":"query","flow":10}|},
      {|{"ok":true,"op":"query","flow":10,"bound":2,"backlog":1.1111111111111112,"deadline":50,"buffer":2,"route":[0]}|}
    );
    (* A route through an unknown server is a bad request naming the
       flow and the server, raised before the engine changes: the
       stats on either side of it are identical. *)
    ( {|{"op":"stats"}|},
      {|{"ok":true,"op":"stats","engine":"delta","curve_backend":"pwl","servers":1,"flows":2,"admitted_rate":0.2,"admits":3,"rejects":3,"teardowns":1,"cone_nodes":6,"reused_nodes":1}|}
    );
    ( {|{"op":"admit","flow":{"id":12,"sigma":1,"rho":0.1,"route":[0,7],"deadline":5}}|},
      {|{"ok":false,"error":"bad_request","detail":"Network.make: flow flow12 routes via unknown server 7"}|}
    );
    ( {|{"op":"stats"}|},
      {|{"ok":true,"op":"stats","engine":"delta","curve_backend":"pwl","servers":1,"flows":2,"admitted_rate":0.2,"admits":3,"rejects":3,"teardowns":1,"cone_nodes":6,"reused_nodes":1}|}
    );
    (* Ids must fit a native int, [-2^62, 2^62).  2^62 is a bad
       request, not a wrap to -2^62, which stays a valid id that was
       never admitted. *)
    ( {|{"op":"admit","flow":{"id":4611686018427387904,"sigma":1,"rho":0.1,"route":[0],"deadline":5}}|},
      {|{"ok":false,"error":"bad_request","detail":"invalid \"id\" field"}|} );
    ( {|{"op":"query","flow":4611686018427387904}|},
      {|{"ok":false,"error":"bad_request","detail":"invalid \"flow\" field"}|} );
    ( {|{"op":"query","flow":-4611686018427387904}|},
      {|{"ok":false,"op":"query","flow":-4.6116860184273879e+18,"error":"unknown_flow"}|}
    );
    (* A NaN deadline or buffer budget is not > 0: a bad request,
       refused before the engine re-analyzes anything. *)
    ( {|{"op":"admit","flow":{"id":13,"sigma":1,"rho":0.1,"route":[0],"deadline":"nan"}}|},
      {|{"ok":false,"error":"bad_request","detail":"Flow.make: deadline must be > 0"}|}
    );
    ( {|{"op":"admit","flow":{"id":13,"sigma":1,"rho":0.1,"route":[0],"deadline":50,"buffer":"nan"}}|},
      {|{"ok":false,"error":"bad_request","detail":"Flow.make: buffer must be > 0"}|}
    );
    ( {|{"op":"stats"}|},
      {|{"ok":true,"op":"stats","engine":"delta","curve_backend":"pwl","servers":1,"flows":2,"admitted_rate":0.2,"admits":3,"rejects":3,"teardowns":1,"cone_nodes":6,"reused_nodes":1}|}
    );
    (* A repeated key is ambiguous: a bad request, not an answer for
       whichever value a lookup happens to see first. *)
    ( {|{"op":"query","flow":5,"flow":6}|},
      {|{"ok":false,"error":"bad_request","detail":"duplicate key"}|} );
    ( {|{"op":"stats"}|},
      {|{"ok":true,"op":"stats","engine":"delta","curve_backend":"pwl","servers":1,"flows":2,"admitted_rate":0.2,"admits":3,"rejects":3,"teardowns":1,"cone_nodes":6,"reused_nodes":1}|}
    );
  ]

let test_golden_transcript () =
  let t = golden_server () in
  List.iteri
    (fun i (request, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "line %d: %s" i request)
        expected (Serve.handle_line t request))
    golden_transcript

(* handle_line is an exception barrier: every request, however
   malformed, gets an in-band ok:false response — nothing escapes to
   kill a session loop serving other clients. *)
let test_handle_line_is_a_barrier () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let t = golden_server () in
  List.iter
    (fun req ->
      match Serve.handle_line t req with
      | resp ->
          Alcotest.(check bool)
            (Printf.sprintf "in-band error for %S" req)
            true
            (contains resp {|"ok":false|})
      | exception e ->
          Alcotest.failf "handle_line raised %s on %S" (Printexc.to_string e)
            req)
    [
      "";
      "not json";
      "{}";
      {|{"op":42}|};
      {|{"op":"nope"}|};
      {|{"op":"query"}|};
      {|{"op":"query","flow":"x"}|};
      {|{"op":"query","flow":999}|};
      {|{"op":"teardown","flow":999}|};
      {|{"op":"admit"}|};
      {|{"op":"admit","flow":{"id":7,"sigma":1,"rho":0.1,"route":[999]}}|};
      {|{"op":"admit","flow":{"id":7}}|};
    ]

let test_session_loop () =
  let t = golden_server () in
  let pending = ref (List.map fst golden_transcript @ [ ""; "   " ]) in
  let responses = ref [] in
  Serve.session t
    ~next:(fun () ->
      match !pending with
      | [] -> None
      | line :: rest ->
          pending := rest;
          Some line)
    ~emit:(fun resp -> responses := resp :: !responses);
  Alcotest.(check (list string))
    "session = handle_line per non-blank line"
    (List.map snd golden_transcript)
    (List.rev !responses)

let test_unstable_sentinels () =
  (* A serve session over a poisoned server: an unstable base flow has
     infinite bounds, which the protocol reports as explicit "inf"
     sentinels rather than null, and any candidate behind it is
     rejected with an infinite violating bound.  The third request
     also round-trips a sentinel on input ("deadline":"inf"). *)
  let t =
    Serve.create ~mode:Serve.Delta
      ~servers:[ Server.make ~id:0 ~rate:1. () ]
      ~flows:
        [ Flow.make ~id:0 ~arrival:(tb ~sigma:1. ~rho:2. ()) ~route:[ 0 ] () ]
      ()
  in
  let check req expected =
    Alcotest.(check string) req expected (Serve.handle_line t req)
  in
  check {|{"op":"query","flow":0}|}
    {|{"ok":true,"op":"query","flow":0,"bound":"inf","backlog":"inf","deadline":null,"buffer":null,"route":[0]}|};
  check
    {|{"op":"admit","flow":{"id":1,"sigma":1,"rho":0.1,"route":[0],"deadline":5}}|}
    {|{"ok":false,"op":"admit","flow":1,"error":"rejected","reason":"deadline_violated","violating_flow":1,"violating_bound":"inf","violating_deadline":5,"cone_nodes":1,"reused_nodes":0}|};
  check
    {|{"op":"admit","flow":{"id":2,"sigma":1,"rho":2,"route":[0],"deadline":"inf"}}|}
    {|{"ok":false,"op":"admit","flow":2,"error":"rejected","reason":"deadline_violated","violating_flow":2,"violating_bound":"inf","violating_deadline":"inf","cone_nodes":1,"reused_nodes":0}|}

(* ------------------------------------------------------------------ *)
(* Full engine parity                                                  *)
(* ------------------------------------------------------------------ *)

let test_full_engine_agrees () =
  let servers, base = tandem_parts 4 in
  let delta = Serve.create ~mode:Serve.Delta ~servers ~flows:base () in
  let full =
    Serve.create ~mode:(Serve.Full Engine.Decomposed) ~servers ~flows:base ()
  in
  let requests =
    [
      {|{"op":"admit","flow":{"id":500,"sigma":1,"rho":0.02,"peak":1,"route":[2,3],"deadline":900}}|};
      {|{"op":"admit","flow":{"id":501,"sigma":1,"rho":0.02,"peak":1,"route":[0,1],"deadline":0.001}}|};
      {|{"op":"query","flow":500}|};
      {|{"op":"teardown","flow":500}|};
    ]
  in
  List.iter
    (fun request ->
      let strip line =
        (* The engines legitimately differ in cone accounting; decisions
           and bounds must agree. *)
        match Sjson.parse line with
        | Sjson.Obj fields ->
            Sjson.render
              (Sjson.Obj
                 (List.filter
                    (fun (k, _) ->
                      k <> "cone_nodes" && k <> "reused_nodes")
                    fields))
        | v -> Sjson.render v
      in
      Alcotest.(check string)
        ("delta/full parity on " ^ request)
        (strip (Serve.handle_line full request))
        (strip (Serve.handle_line delta request)))
    requests

(* FIFO-theta on a long tandem: past about 2^53 some theta-family
   members cannot be built, and the method bounds them by [infinity]
   instead of raising.  An admit with a large deadline is answered with
   a typed rejection, not a [bad_request]. *)
let test_full_fifo_theta_long_tandem () =
  let t = Tandem.make ~n:160 ~utilization:0.9 () in
  let full =
    Serve.create ~mode:(Serve.Full Engine.Fifo_theta)
      ~servers:(Network.servers t.Tandem.network)
      ~flows:(Network.flows t.Tandem.network) ()
  in
  let response =
    Serve.handle_line full
      {|{"op":"admit","flow":{"id":900,"sigma":1,"rho":0.001,"route":[158,159],"deadline":1e9}}|}
  in
  let field k =
    match Sjson.parse response with
    | Sjson.Obj fields -> (
        match List.assoc_opt k fields with Some (Sjson.Str s) -> s | _ -> "")
    | _ -> ""
  in
  Alcotest.(check (pair string string))
    response
    ("rejected", "deadline_violated")
    (field "error", field "reason")

let suite =
  ( "serve",
    [
      test "admission: run is a fold of decide_one" test_run_is_fold_of_decide_one;
      test "admission: rejection reasons" test_rejection_reasons;
      test "admission: buffer budget rejection" test_buffer_violated_reason;
      test "delta: churn matches from-scratch bits" test_churn_determinism;
      test "delta: rejected admit rolls back bit-exactly" test_rollback_bit_exact;
      test "delta: decisions match decide_one" test_delta_matches_decide_one;
      test "delta: tail admit reuses out-of-cone state" test_tail_admit_reuses;
      test "delta: corpus churn matches from-scratch bits"
        test_corpus_churn_matches_scratch;
      test "delta: write allocation is bounded by the cone"
        test_write_allocation_is_cone_bound;
      test "delta: churn through a multi-hop unstable server"
        test_churn_through_unstable_server;
      test "sjson: deterministic render and round-trip" test_sjson_roundtrip;
      test "sjson: float bit round-trip" test_sjson_float_bits;
      test "sjson: parse errors" test_sjson_errors;
      test "protocol: golden transcript" test_golden_transcript;
      test "protocol: session loop" test_session_loop;
      test "protocol: handle_line is an exception barrier"
        test_handle_line_is_a_barrier;
      test "protocol: non-finite sentinels" test_unstable_sentinels;
      test "protocol: delta/full engine parity" test_full_engine_agrees;
      test "protocol: full FIFO-theta on a long tandem rejects, typed"
        test_full_fifo_theta_long_tandem;
    ] )
