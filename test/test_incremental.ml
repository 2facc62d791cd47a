(* The incremental sweep engine must be invisible except for speed:
   memoized analyses and prefix-served sweep cells return the same bits
   as from-scratch computation.  The bench tables rely on that. *)

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
      exact_cell n u "fifo_theta" a.fifo_theta b.fifo_theta)
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
    ] )
