(* The incremental sweep engine must be invisible except for speed:
   memoized and prefix-served sweep cells return the same bits as one
   compare_all per cell.  The bench tables rely on that.  Outside the
   sweep memo, every caller runs each whole-network pass once. *)

open Testutil

(* ------------------------------------------------------------------ *)
(* Hash-consing: uids intern content on demand                         *)
(* ------------------------------------------------------------------ *)

let test_interning () =
  let mk () = Pwl.make [ (0., 2., 1.5); (3., 6.5, 0.25) ] in
  let a = mk () and b = mk () in
  Alcotest.(check int) "equal content, equal uid" (Pwl.uid a) (Pwl.uid b);
  let c = Pwl.make [ (0., 2., 1.5); (3., 6.5, 0.5) ] in
  check_bool "distinct content, distinct uid" true (Pwl.uid c <> Pwl.uid a);
  let hits () = (Pwl.intern_stats ()).Pwl.hits in
  let h0 = hits () in
  ignore (Pwl.uid (mk ()));
  Alcotest.(check int) "a second read of equal content is a hit" (h0 + 1)
    (hits ());
  check_bool "live entries counted" true ((Pwl.intern_stats ()).Pwl.entries > 0);
  (* After a reset, equal content gets a fresh uid: never a reused one,
     so a stale uid-keyed cache entry cannot be hit by other content. *)
  let before = List.map Pwl.uid [ a; c ] in
  Pwl.intern_clear ();
  let after = Pwl.uid (mk ()) in
  check_bool "fresh uid after a reset" true (not (List.mem after before))

(* Only the uid readers intern.  The streaming pass and a serve write
   build thousands of curves and read no uid, so they never touch the
   table: a count, not a timing. *)
let test_stream_and_serve_never_intern () =
  let counter name = Metrics.value (Metrics.counter name) in
  let interned () = counter "pwl.intern.hits" + counter "pwl.intern.misses" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let net =
    Corpus.generate ~family:Corpus.Heavytail ~target_servers:2000 ~seed:1
  in
  let m0 = counter "pwl.make.calls" and i0 = interned () in
  let s = Propagation_stream.analyze net in
  ignore (Propagation_stream.all_flow_delays s);
  let made = counter "pwl.make.calls" - m0 in
  check_bool (Printf.sprintf "stream built %d curves" made) true (made > 10_000);
  Alcotest.(check int) "stream interns nothing" 0 (interned () - i0);
  let net =
    Corpus.generate ~family:Corpus.Edge_cloud ~target_servers:200 ~seed:5
  in
  let flows = Network.flows net in
  let base = List.filteri (fun i _ -> i mod 4 <> 3) flows in
  let (f : Flow.t) = List.nth flows 3 in
  let t =
    Serve.create ~mode:Serve.Delta ~servers:(Network.servers net) ~flows:base ()
  in
  let sigma, rho, peak = Arrival.token_params f.arrival in
  let num x = Sjson.Num x and int i = Sjson.Num (float_of_int i) in
  let admit =
    Sjson.render
      (Sjson.Obj
         [ ("op", Sjson.Str "admit");
           ( "flow",
             Sjson.Obj
               [ ("id", int f.id); ("sigma", num sigma); ("rho", num rho);
                 ("peak", num peak); ("route", Sjson.List (List.map int f.route));
                 ("deadline", num 1e6) ] ) ])
  in
  let teardown =
    Sjson.render (Sjson.Obj [ ("op", Sjson.Str "teardown"); ("flow", int f.id) ])
  in
  let ok line = String.starts_with ~prefix:{|{"ok":true|} line in
  let i0 = interned () in
  check_bool "admitted" true (ok (Serve.handle_line t admit));
  check_bool "torn down" true (ok (Serve.handle_line t teardown));
  Alcotest.(check int) "serve admit + teardown intern nothing" 0 (interned () - i0)

(* ------------------------------------------------------------------ *)
(* Sweep engine: prefix reads = per-cell analyses, bit for bit        *)
(* ------------------------------------------------------------------ *)

let exact_cell n u name x y =
  if
    Int64.bits_of_float x <> Int64.bits_of_float y
    && not (Float.is_nan x && Float.is_nan y)
  then Alcotest.failf "n=%d U=%g %s: %.17g <> %.17g" n u name x y

let check_grid ?sigma ?peak ~hops ~loads grid =
  let cells =
    List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads
  in
  List.iter2
    (fun ((u, n), (want : Engine.comparison)) (got : Engine.comparison) ->
      exact_cell n u "decomposed" want.decomposed got.decomposed;
      exact_cell n u "service_curve" want.service_curve got.service_curve;
      exact_cell n u "integrated" want.integrated got.integrated;
      exact_cell n u "fifo_theta" want.fifo_theta got.fifo_theta;
      exact_cell n u "decomposed_backlog" want.decomposed_backlog
        got.decomposed_backlog;
      exact_cell n u "integrated_backlog" want.integrated_backlog
        got.integrated_backlog)
    (List.combine cells (per_cell_grid ?sigma ?peak ~hops ~loads ()))
    grid

let test_sweep_prefix_identity () =
  (* Odd hop count included to exercise the per-cell Integrated pass. *)
  let hops = [ 2; 3; 4 ] and loads = [ 0.3; 0.6; 0.85 ] in
  check_grid ~hops ~loads (Sweep_engine.tandem_grid ~hops ~loads ())

let test_sweep_saturated_load () =
  (* U = 0.9 with sigma high enough to saturate nothing: just check the
     grid agrees with direct compare_all at the largest prefix too. *)
  let u = 0.9 and n = 4 in
  let want =
    let t = Tandem.make ~n ~utilization:u ~sigma:1. ~peak:1. () in
    Engine.compare_all ~with_theta:false ~strategy:(Pairing.Along_route 0)
      t.network 0
  in
  let got =
    match Sweep_engine.tandem_grid ~hops:[ 2; n ] ~loads:[ u ] () with
    | [ _; c ] -> c
    | _ -> Alcotest.fail "expected two cells"
  in
  exact_cell n u "decomposed" want.Engine.decomposed got.Engine.decomposed;
  exact_cell n u "service_curve" want.service_curve got.service_curve;
  exact_cell n u "integrated" want.integrated got.integrated

(* ------------------------------------------------------------------ *)
(* Passes, counted                                                     *)
(* ------------------------------------------------------------------ *)

(* Calls of a span so far; spans record only while Obs is on. *)
let span_calls name =
  match List.assoc_opt name (Trace.aggregates ()) with
  | Some a -> a.Trace.calls
  | None -> 0

let passes_so_far () =
  ( Metrics.value (Metrics.counter "incremental.recompute"),
    span_calls "decomposed.analyze",
    span_calls "integrated.analyze" )

let with_obs f =
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Metrics.reset ();
      Trace.clear ())
    f

(* Figure 4's grid, Figure 6's repeat of it and Figure 5's hops on the
   same largest tandem: the repeats are served from the memoized
   per-load passes and compute no new pass.  The sigma is one no other
   test sweeps, so the first grid runs cold.  Every cell must still
   match a per-cell analysis, bit for bit. *)
let test_repeated_grid_memo () =
  let sigma = 1.375 and loads = Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1 in
  let fig4 = [ 2; 4; 6; 8 ] and fig5 = [ 2; 4; 8 ] in
  let grid hops = Sweep_engine.tandem_grid ~sigma ~hops ~loads () in
  let g1, g2, g3, (c0, c1, c2) =
    with_obs @@ fun () ->
    let c0 = passes_so_far () in
    let g1 = grid fig4 in
    let c1 = passes_so_far () in
    let g2 = grid fig4 in
    let g3 = grid fig5 in
    (g1, g2, g3, (c0, c1, passes_so_far ()))
  in
  let (r0, d0, i0), (r1, d1, i1), (r2, d2, i2) = (c0, c1, c2) in
  let per_load = List.length loads in
  Alcotest.(check int) "cold grid: one decomposed pass per load" per_load
    (d1 - d0);
  Alcotest.(check int) "cold grid: one integrated pass per load" per_load
    (i1 - i0);
  Alcotest.(check int) "cold grid: one memo miss per load" per_load (r1 - r0);
  Alcotest.(check int) "repeats: no memo miss" 0 (r2 - r1);
  Alcotest.(check int) "repeats: no decomposed pass" 0 (d2 - d1);
  Alcotest.(check int) "repeats: no integrated pass" 0 (i2 - i1);
  check_grid ~sigma ~hops:fig4 ~loads g1;
  check_grid ~sigma ~hops:fig4 ~loads g2;
  check_grid ~sigma ~hops:fig5 ~loads g3

(* The memo's key is the bit patterns of (sigma, peak, load) and the
   largest hop count, and nothing else may change a value: a verbatim
   repeat computes nothing, and a change to any one component computes
   exactly one pass of each method.  The sigmas are ones no other test
   sweeps. *)
let test_sweep_memo_key () =
  let sigma = 1.4375 and peak = 1. and u = 0.45 and hops = [ 2; 4 ] in
  with_obs @@ fun () ->
  let computes ~what ?(sigma = sigma) ?(peak = peak) ?(u = u) ?(hops = hops)
      want =
    let r0, d0, i0 = passes_so_far () in
    let grid = Sweep_engine.tandem_grid ~sigma ~peak ~hops ~loads:[ u ] () in
    let r1, d1, i1 = passes_so_far () in
    Alcotest.(check int) (what ^ ": memo misses") want (r1 - r0);
    Alcotest.(check int) (what ^ ": decomposed passes") want (d1 - d0);
    Alcotest.(check int) (what ^ ": integrated passes") want (i1 - i0);
    check_grid ~sigma ~peak ~hops ~loads:[ u ] grid
  in
  computes ~what:"cold" 1;
  computes ~what:"verbatim repeat" 0;
  computes ~what:"sigma changed" ~sigma:1.5625 1;
  computes ~what:"peak changed" ~peak:1.5 1;
  computes ~what:"load changed" ~u:0.55 1;
  computes ~what:"largest hop count changed" ~hops:[ 2; 6 ] 1

(* Outside the sweep every method runs each whole-network pass once:
   no memo is left to hide a second one. *)
let passes f =
  with_obs @@ fun () ->
  let _, d0, i0 = passes_so_far () in
  let v = f () in
  let _, d1, i1 = passes_so_far () in
  (v, (d1 - d0, i1 - i0))

let check_passes what (d, i) (d', i') =
  Alcotest.(check int) (what ^ ": decomposed passes") d d';
  Alcotest.(check int) (what ^ ": integrated passes") i i'

(* One pass of [m]'s own kind, by span count. *)
let one_pass = function
  | Engine.Integrated -> (0, 1)
  | Engine.Decomposed | Engine.Service_curve | Engine.Fifo_theta -> (1, 0)

let test_one_pass_per_network () =
  let net = (Tandem.make ~n:4 ~utilization:0.7 ()).network in
  check_passes "compare_all" (1, 1)
    (snd
       (passes (fun () ->
            Engine.compare_all ~strategy:(Pairing.Along_route 0) net 0)));
  (* Every flow carries a deadline and a buffer budget, both loose, so
     the admission test reads every flow's bound and every hop's
     backlog. *)
  let buffered (f : Flow.t) =
    Flow.make ~id:f.id ~name:f.name ~arrival:f.arrival ~route:f.route
      ~deadline:1e6 ~buffer:1e6 ()
  in
  let servers = Network.servers net in
  let flows = List.map buffered (Network.flows net) in
  let candidate =
    Flow.make ~id:100
      ~arrival:(Arrival.token_bucket ~sigma:0.5 ~rho:0.01 ~peak:1. ())
      ~route:[ 2; 3 ] ~deadline:1e6 ~buffer:1e6 ()
  in
  List.iter
    (fun m ->
      let verdict, got =
        passes (fun () ->
            Admission.decide_one ~servers ~flows ~candidate ~method_:m ())
      in
      (match verdict with
      | Admission.Accepted _ -> ()
      | Admission.Rejected _ ->
          Alcotest.failf "%s: candidate not admitted" (Engine.method_name m));
      check_passes ("decide_one " ^ Engine.method_name m) (one_pass m) got)
    [ Engine.Decomposed; Engine.Service_curve; Engine.Integrated ]

(* The admission paths the memo used to answer keep one pass per
   population.  The serve full engine keeps the analysis of its current
   population: an accepted admit's pass answers the query after it, and
   after a teardown the first query runs the one new pass.  Each reply
   must have the bytes of one built from a fresh analysis of the same
   population. *)
let test_serve_full_one_pass () =
  let t0 = Tandem.make ~n:4 ~utilization:0.6 () in
  let servers = Network.servers t0.network in
  let base = Network.flows t0.network in
  let cand_id = 500 in
  let cand =
    Flow.make ~id:cand_id
      ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.02 ~peak:1. ())
      ~route:[ 2; 3 ] ~deadline:900. ()
  in
  let admit =
    {|{"op":"admit","flow":{"id":500,"sigma":1,"rho":0.02,"peak":1,"route":[2,3],"deadline":900}}|}
  in
  let query id = Printf.sprintf {|{"op":"query","flow":%d}|} id in
  let teardown = {|{"op":"teardown","flow":500}|} in
  (* The reply a query gets, built from a fresh analysis of [flows]. *)
  let expected m flows (f : Flow.t) =
    let a = Engine.analyze (Network.make ~servers ~flows) m in
    let opt = function Some x -> Sjson.Num x | None -> Sjson.Null in
    Sjson.render
      (Sjson.Obj
         [ ("ok", Sjson.Bool true); ("op", Sjson.Str "query");
           ("flow", Sjson.num_of_int f.id);
           ("bound", Sjson.float_repr (Engine.flow_delay a f.id));
           ("backlog", Sjson.float_repr (Engine.flow_backlog a f.id));
           ("deadline", opt f.deadline); ("buffer", opt f.buffer);
           ("route", Sjson.List (List.map Sjson.num_of_int f.route)) ])
  in
  let ok line = String.starts_with ~prefix:{|{"ok":true|} line in
  List.iter
    (fun m ->
      let name = Engine.method_name m in
      let t = Serve.create ~mode:(Serve.Full m) ~servers ~flows:base () in
      let (admitted, q1), got =
        passes (fun () ->
            let a = Serve.handle_line t admit in
            (a, Serve.handle_line t (query cand_id)))
      in
      check_bool (name ^ ": admitted") true (ok admitted);
      check_passes (name ^ ": admit + query") (one_pass m) got;
      Alcotest.(check string) (name ^ ": query after admit")
        (expected m (base @ [ cand ]) cand) q1;
      let conn0 = List.hd base in
      let (q2, q3), got =
        passes (fun () ->
            check_bool (name ^ ": torn down") true
              (ok (Serve.handle_line t teardown));
            let q2 = Serve.handle_line t (query conn0.id) in
            (q2, Serve.handle_line t (query conn0.id)))
      in
      check_passes (name ^ ": teardown + two queries") (one_pass m) got;
      Alcotest.(check string) (name ^ ": first query after teardown")
        (expected m base conn0) q2;
      Alcotest.(check string) (name ^ ": second query after teardown")
        (expected m base conn0) q3)
    [ Engine.Decomposed; Engine.Integrated ]

(* [netcalc admit] reads every admitted candidate's bound and backlog
   from the analysis that accepted the last one, so a run over k
   candidates, one of them refused, costs k passes in all. *)
let test_admission_run_passes () =
  let t0 = Tandem.make ~n:4 ~utilization:0.6 () in
  let servers = Network.servers t0.network in
  let base = Network.flows t0.network in
  let candidates =
    List.init 4 (fun i ->
        Flow.make ~id:(600 + i)
          ~arrival:(Arrival.token_bucket ~sigma:0.5 ~rho:0.01 ~peak:1. ())
          ~route:[ i mod 3; (i mod 3) + 1 ]
          ~deadline:(if i = 2 then 1e-3 else 1e6)
          ~buffer:1e6 ())
  in
  let k = List.length candidates in
  List.iter
    (fun m ->
      let name = Engine.method_name m in
      let (outcome : Admission.outcome), got =
        passes (fun () ->
            let outcome =
              Admission.run ~servers ~base ~candidates ~method_:m ()
            in
            (match outcome.analysis with
            | Some a ->
                List.iter
                  (fun (c : Flow.t) ->
                    ignore (Engine.flow_delay a c.id);
                    ignore (Engine.flow_backlog a c.id))
                  outcome.admitted
            | None -> ());
            outcome)
      in
      Alcotest.(check int) (name ^ ": admitted") (k - 1)
        (List.length outcome.admitted);
      let d, i = one_pass m in
      check_passes (name ^ ": run + reads") (k * d, k * i) got;
      (* The kept analysis is the final population's, bit for bit. *)
      match outcome.analysis with
      | None -> Alcotest.fail "no analysis kept"
      | Some a ->
          let fresh =
            Engine.analyze
              (Network.make ~servers ~flows:(base @ outcome.admitted))
              m
          in
          List.iter
            (fun (c : Flow.t) ->
              Alcotest.(check int64)
                (Printf.sprintf "%s: flow %d bound" name c.id)
                (Int64.bits_of_float (Engine.flow_delay fresh c.id))
                (Int64.bits_of_float (Engine.flow_delay a c.id));
              Alcotest.(check int64)
                (Printf.sprintf "%s: flow %d backlog" name c.id)
                (Int64.bits_of_float (Engine.flow_backlog fresh c.id))
                (Int64.bits_of_float (Engine.flow_backlog a c.id)))
            outcome.admitted)
    [ Engine.Decomposed; Engine.Integrated ]

let suite =
  ( "incremental",
    [
      test "hash-consing interns equal curves" test_interning;
      test "stream and serve writes never intern"
        test_stream_and_serve_never_intern;
      test "sweep grid = scratch grid, bit for bit" test_sweep_prefix_identity;
      test "largest prefix matches compare_all" test_sweep_saturated_load;
      test "repeated grid is served from the memo" test_repeated_grid_memo;
      test "sweep memo keys exactly the tandem's parameters"
        test_sweep_memo_key;
      test "compare_all and decide_one: one pass per network"
        test_one_pass_per_network;
      test "serve full engine: one pass per population"
        test_serve_full_one_pass;
      test "admission run: k candidates, k passes" test_admission_run_passes;
    ] )
