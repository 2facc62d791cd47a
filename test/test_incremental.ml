(* The incremental sweep engine must be invisible except for speed:
   memoized analyses and prefix-served sweep cells return the same bits
   as from-scratch computation.  The bench tables rely on that.  Apart
   from the memo, every caller runs each whole-network pass once. *)

open Testutil

let with_incremental b f =
  let prev = Incremental.enabled () in
  Incremental.set_enabled b;
  Fun.protect ~finally:(fun () -> Incremental.set_enabled prev) f

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
(* Memoized analyses                                                   *)
(* ------------------------------------------------------------------ *)

let exact_delays name want got =
  List.iter2
    (fun (f1, d1) (f2, d2) ->
      Alcotest.(check int) (name ^ ": flow") f1 f2;
      if
        Int64.bits_of_float d1 <> Int64.bits_of_float d2
      then Alcotest.failf "%s: flow %d: %.17g <> %.17g" name f1 d1 d2)
    want got

let test_memo_transparent () =
  let net = (Tandem.make ~n:5 ~utilization:0.7 ()).network in
  let run () =
    ( Decomposed.all_flow_delays (Decomposed.analyze net),
      Integrated.all_flow_delays
        (Integrated.analyze ~strategy:(Pairing.Along_route 0) net) )
  in
  let dd_off, di_off = with_incremental false run in
  let dd_on, di_on = with_incremental true run in
  exact_delays "decomposed" dd_off dd_on;
  exact_delays "integrated" di_off di_on

let test_memo_reuse () =
  with_incremental true @@ fun () ->
  Incremental.clear ();
  let before = (Incremental.stats ()).Incremental.reuse in
  let net = (Tandem.make ~n:3 ~utilization:0.5 ()).network in
  let a = Decomposed.analyze net in
  (* Structurally identical rebuild: must be served from the memo. *)
  let net' = (Tandem.make ~n:3 ~utilization:0.5 ()).network in
  let b = Decomposed.analyze net' in
  check_bool "second analysis reused" true
    ((Incremental.stats ()).Incremental.reuse > before);
  exact_delays "same bounds"
    (Decomposed.all_flow_delays a)
    (Decomposed.all_flow_delays b)

(* ------------------------------------------------------------------ *)
(* Sweep engine: prefix reads = scratch analyses, bit for bit          *)
(* ------------------------------------------------------------------ *)

let exact_cell n u name x y =
  if
    Int64.bits_of_float x <> Int64.bits_of_float y
    && not (Float.is_nan x && Float.is_nan y)
  then Alcotest.failf "n=%d U=%g %s: %.17g <> %.17g" n u name x y

let test_sweep_prefix_identity () =
  (* Odd hop count included to exercise the per-cell fallback. *)
  let hops = [ 2; 3; 4 ] and loads = [ 0.3; 0.6; 0.85 ] in
  let grid b =
    with_incremental b (fun () ->
        Sweep_engine.tandem_grid ~hops ~loads ())
  in
  let on = grid true and off = grid false in
  let cells =
    List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads
  in
  List.iter2
    (fun (u, n) ((a : Engine.comparison), b) ->
      exact_cell n u "decomposed" a.decomposed b.Engine.decomposed;
      exact_cell n u "service_curve" a.service_curve b.service_curve;
      exact_cell n u "integrated" a.integrated b.integrated;
      exact_cell n u "fifo_theta" a.fifo_theta b.fifo_theta;
      exact_cell n u "decomposed_backlog" a.decomposed_backlog
        b.decomposed_backlog;
      exact_cell n u "integrated_backlog" a.integrated_backlog
        b.integrated_backlog)
    cells (List.combine on off)

let test_sweep_saturated_load () =
  (* U = 0.9 with sigma high enough to saturate nothing: just check the
     grid agrees with direct compare_all at the largest prefix too. *)
  let u = 0.9 and n = 4 in
  let want =
    with_incremental false (fun () ->
        let t = Tandem.make ~n ~utilization:u ~sigma:1. ~peak:1. () in
        Engine.compare_all ~with_theta:false
          ~strategy:(Pairing.Along_route 0) t.network 0)
  in
  let got =
    with_incremental true (fun () ->
        match Sweep_engine.tandem_grid ~hops:[ 2; n ] ~loads:[ u ] () with
        | [ _; c ] -> c
        | _ -> Alcotest.fail "expected two cells")
  in
  exact_cell n u "decomposed" want.Engine.decomposed got.Engine.decomposed;
  exact_cell n u "service_curve" want.service_curve got.service_curve;
  exact_cell n u "integrated" want.integrated got.integrated

(* Key-coverage audit: every input that can change a memoized result
   must be folded into net_key — each field of the options (link_cap,
   sp_blocking) and the pairing strategy.  A miss here is silent: the
   memo would replay a value computed under different settings. *)
let test_net_key_coverage () =
  with_incremental true (fun () ->
      let net = (Tandem.make ~n:2 ~utilization:0.5 ()).network in
      let tbl : int Incremental.table = Incremental.table () in
      let calls = ref 0 in
      let get key =
        ignore
          (Incremental.memoize tbl key (fun () ->
               incr calls;
               !calls))
      in
      get (Incremental.net_key ~options:Options.default net);
      get (Incremental.net_key ~options:Options.default net);
      Alcotest.(check int) "identical inputs hit the memo" 1 !calls;
      get (Incremental.net_key ~options:Options.sharpened net);
      Alcotest.(check int) "link_cap is keyed" 2 !calls;
      get
        (Incremental.net_key
           ~options:(Options.with_blocking 0.5 Options.default)
           net);
      Alcotest.(check int) "sp_blocking is keyed" 3 !calls;
      get
        (Incremental.net_key ~options:Options.default
           ~strategy:(Pairing.Along_route 0) net);
      Alcotest.(check int) "pairing strategy is keyed" 4 !calls;
      get
        (Incremental.net_key ~options:Options.default ~strategy:Pairing.Greedy
           net);
      Alcotest.(check int) "a different strategy is keyed apart" 5 !calls)

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
   per-load passes and compute no new pass.  Every cell must still
   match a per-cell analysis with the memo off, bit for bit. *)
let test_repeated_grid_memo () =
  with_incremental true @@ fun () ->
  Incremental.clear ();
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
  Alcotest.(check int) "cold grid: two memo misses per load" (2 * per_load)
    (r1 - r0);
  Alcotest.(check int) "repeats: no memo miss" 0 (r2 - r1);
  Alcotest.(check int) "repeats: no decomposed pass" 0 (d2 - d1);
  Alcotest.(check int) "repeats: no integrated pass" 0 (i2 - i1);
  let check hops g =
    let cells =
      List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads
    in
    List.iter2
      (fun (u, n) (a : Engine.comparison) ->
        let b =
          with_incremental false (fun () ->
              let t = Tandem.make ~n ~utilization:u ~sigma ~peak:1. () in
              Engine.compare_all ~with_theta:false
                ~strategy:(Pairing.Along_route 0) t.network 0)
        in
        exact_cell n u "decomposed" a.decomposed b.Engine.decomposed;
        exact_cell n u "service_curve" a.service_curve b.service_curve;
        exact_cell n u "integrated" a.integrated b.integrated;
        exact_cell n u "decomposed_backlog" a.decomposed_backlog
          b.decomposed_backlog;
        exact_cell n u "integrated_backlog" a.integrated_backlog
          b.integrated_backlog)
      cells g
  in
  check fig4 g1;
  check fig4 g2;
  check fig5 g3

(* Outside the sweep every method runs each whole-network pass once,
   with no memo to hide a second one: counted with the memo off. *)
let test_one_pass_per_network () =
  with_incremental false @@ fun () ->
  let net = (Tandem.make ~n:4 ~utilization:0.7 ()).network in
  let passes f =
    with_obs @@ fun () ->
    let _, d0, i0 = passes_so_far () in
    ignore (f ());
    let _, d1, i1 = passes_so_far () in
    (d1 - d0, i1 - i0)
  in
  let check what (d, i) (d', i') =
    Alcotest.(check int) (what ^ ": decomposed passes") d d';
    Alcotest.(check int) (what ^ ": integrated passes") i i'
  in
  check "compare_all" (1, 1)
    (passes (fun () ->
         Engine.compare_all ~strategy:(Pairing.Along_route 0) net 0));
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
    (fun (m, want) ->
      let verdict = ref None in
      let got =
        passes (fun () ->
            verdict :=
              Some
                (Admission.decide_one ~servers ~flows ~candidate ~method_:m ()))
      in
      (match !verdict with
      | Some (Admission.Accepted _) -> ()
      | _ -> Alcotest.failf "%s: candidate not admitted" (Engine.method_name m));
      check ("decide_one " ^ Engine.method_name m) want got)
    [
      (Engine.Decomposed, (1, 0));
      (Engine.Service_curve, (1, 0));
      (Engine.Integrated, (0, 1));
    ]

let suite =
  ( "incremental",
    [
      test "hash-consing interns equal curves" test_interning;
      test "stream and serve writes never intern"
        test_stream_and_serve_never_intern;
      test "memoized analyses are transparent" test_memo_transparent;
      test "net_key covers every result-changing input"
        test_net_key_coverage;
      test "structural rebuild hits the memo" test_memo_reuse;
      test "sweep grid = scratch grid, bit for bit" test_sweep_prefix_identity;
      test "largest prefix matches compare_all" test_sweep_saturated_load;
      test "repeated grid is served from the memo" test_repeated_grid_memo;
      test "compare_all and decide_one: one pass per network"
        test_one_pass_per_network;
    ] )
