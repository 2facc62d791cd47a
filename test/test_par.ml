(* netcalc.par: the pool must behave exactly like List.map whatever the
   jobs count — same order, same exceptions, byte-identical downstream
   tables — and the pwl conv/deconv cache must be invisible except for
   speed.  These are the guarantees that let the bench sweeps and the
   engines parallelize without a determinism audit per call site. *)

open Testutil

let with_jobs n f =
  Par.set_jobs n;
  Fun.protect ~finally:Par.clear_jobs f

let test_map_order () =
  let xs = List.init 103 (fun i -> i) in
  let want = List.map (fun i -> (i * 7) mod 31) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        want
        (Par.map ~jobs (fun i -> (i * 7) mod 31) xs))
    [ 1; 2; 4; 7 ];
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Par.map ~jobs:4 (fun i -> i * 9) [ 1 ])

let test_mapi () =
  Alcotest.(check (list int)) "indexed" [ 10; 21; 32 ]
    (Par.mapi ~jobs:3 (fun i x -> (10 * x) + i) [ 1; 2; 3 ])

let test_map_reduce () =
  let xs = List.init 50 (fun i -> float_of_int (i + 1)) in
  (* Non-associative, order-sensitive reduction: the fold must happen
     in list order for this to match the sequential run bit for bit. *)
  let reduce acc v = (acc *. 0.5) +. v in
  let seq = List.fold_left reduce 0. (List.map sqrt xs) in
  List.iter
    (fun jobs ->
      let par = Par.map_reduce ~jobs ~map:sqrt ~reduce 0. xs in
      if par <> seq then
        Alcotest.failf "jobs=%d: %.17g <> %.17g" jobs par seq)
    [ 1; 3; 8 ]

exception Boom of int

let test_exception_propagation () =
  match
    Par.map ~jobs:4 (fun i -> if i >= 60 then raise (Boom i) else i)
      (List.init 100 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ()

(* Which exception surfaces must not depend on the schedule: when
   several elements fail, the one raised is the sequential one — the
   smallest failing index — at any jobs count. *)
let test_exception_smallest_index () =
  let xs = List.init 200 (fun i -> i) in
  List.iter
    (fun jobs ->
      for _round = 1 to 5 do
        match
          Par.map ~jobs (fun i -> if i mod 7 = 3 then raise (Boom i) else i) xs
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "jobs=%d raises the first failure" jobs)
              3 i
      done)
    [ 1; 2; 4; 8 ]

let test_nested () =
  let got =
    Par.map ~jobs:4
      (fun i -> Par.map ~jobs:4 (fun j -> (i * 10) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int))) "nested maps"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
    got

(* The fig5-style table must come out byte-identical at any jobs count:
   parallelism may only change the schedule, never the printed data. *)
let mini_fig5_table () =
  let t = Tandem.make ~n:4 ~utilization:0.6 ~sigma:1. ~peak:1. () in
  let cells =
    Par.map
      (fun u ->
        let t' = Tandem.make ~n:2 ~utilization:u ~sigma:1. ~peak:1. () in
        let c =
          Engine.compare_all ~with_theta:false
            ~strategy:(Pairing.Along_route 0) t'.network 0
        in
        (u, c))
      [ 0.2; 0.5; 0.8 ]
  in
  let c4 =
    Engine.compare_all ~with_theta:false ~strategy:(Pairing.Along_route 0)
      t.network 0
  in
  let tbl = Table.create ~header:[ "U"; "D_D"; "D_I" ] in
  List.iter
    (fun (u, (c : Engine.comparison)) ->
      Table.add_floats tbl [ u; c.decomposed; c.integrated ])
    (cells @ [ (0.6, c4) ]);
  Table.to_string tbl

let test_jobs_invariance () =
  let t1 = with_jobs 1 mini_fig5_table in
  let t4 = with_jobs 4 mini_fig5_table in
  Alcotest.(check string) "table identical at jobs 1 and 4" t1 t4

(* The bench figures now route through the incremental sweep engine:
   the printed table must not care whether the engine is on or off, nor
   how many workers serve the grid — all four combinations must render
   the same bytes. *)
let with_incremental b f =
  let prev = Incremental.enabled () in
  Incremental.set_enabled b;
  Fun.protect ~finally:(fun () -> Incremental.set_enabled prev) f

let sweep_table () =
  let hops = [ 2; 4 ] and loads = [ 0.2; 0.5; 0.8 ] in
  let cells = Sweep_engine.tandem_grid ~hops ~loads () in
  let tbl = Table.create ~header:[ "U"; "n"; "D_D"; "D_SC"; "D_I" ] in
  List.iter2
    (fun (u, n) (c : Engine.comparison) ->
      Table.add_floats tbl
        [ u; float_of_int n; c.decomposed; c.service_curve; c.integrated ])
    (List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads)
    cells;
  Table.to_string tbl

let test_sweep_engine_invariance () =
  let variants =
    [
      ("incremental jobs=1", fun () -> with_incremental true (fun () -> with_jobs 1 sweep_table));
      ("incremental jobs=4", fun () -> with_incremental true (fun () -> with_jobs 4 sweep_table));
      ("scratch jobs=1", fun () -> with_incremental false (fun () -> with_jobs 1 sweep_table));
      ("scratch jobs=4", fun () -> with_incremental false (fun () -> with_jobs 4 sweep_table));
    ]
  in
  match List.map (fun (name, f) -> (name, f ())) variants with
  | [] -> ()
  | (_, want) :: rest ->
      List.iter
        (fun (name, got) ->
          Alcotest.(check string) ("table identical: " ^ name) want got)
        rest

let test_compare_all_invariance () =
  let net = (Tandem.make ~n:4 ~utilization:0.7 ()).network in
  let run () =
    Engine.compare_all ~strategy:(Pairing.Along_route 0) net 0
  in
  let a = with_jobs 1 run and b = with_jobs 4 run in
  let exact name x y =
    if not (x = y || (Float.is_nan x && Float.is_nan y)) then
      Alcotest.failf "%s: %.17g <> %.17g" name x y
  in
  exact "decomposed" a.Engine.decomposed b.Engine.decomposed;
  exact "service_curve" a.service_curve b.service_curve;
  exact "integrated" a.integrated b.integrated;
  exact "fifo_theta" a.fifo_theta b.fifo_theta

let test_fixed_point_invariance () =
  let net = (Ring.make ~n:5 ~hops:3 ~utilization:0.5 ()).network in
  let run () =
    let fp = Fixed_point.analyze ~max_iter:300 net in
    (Fixed_point.converged fp, Fixed_point.iterations fp,
     Fixed_point.all_flow_delays fp)
  in
  let c1, i1, d1 = with_jobs 1 run in
  let c4, i4, d4 = with_jobs 4 run in
  Alcotest.(check bool) "converged" c1 c4;
  Alcotest.(check int) "iterations" i1 i4;
  List.iter2
    (fun (f1, b1) (f4, b4) ->
      Alcotest.(check int) "flow" f1 f4;
      if b1 <> b4 then Alcotest.failf "flow %d: %.17g <> %.17g" f1 b1 b4)
    d1 d4

(* Concurrent recording into netcalc.obs from pool workers must lose
   nothing: N increments are N increments whatever the schedule. *)
let test_obs_concurrent () =
  Obs.enable ();
  Metrics.reset ();
  let c = Metrics.counter "test.par.incr" in
  let n = 400 in
  ignore
    (Par.map ~jobs:4
       (fun _ ->
         Metrics.incr c;
         Trace.with_span "test.par.span" (fun () -> ()))
       (List.init n (fun i -> i)));
  Alcotest.(check int) "no lost increments" n (Metrics.value c);
  let spans =
    match List.assoc_opt "test.par.span" (Trace.aggregates ()) with
    | Some a -> a.Trace.calls
    | None -> 0
  in
  Alcotest.(check int) "no lost spans" n spans;
  Obs.disable ();
  Metrics.reset ();
  Trace.clear ()

(* Cache transparency: conv/deconv with the cache on must equal the
   uncached computation segment for segment (same floats), on random
   token-bucket / rate-latency curve pairs. *)
let with_cache b f =
  let prev = Minplus.cache_enabled () in
  Minplus.set_cache_enabled b;
  Fun.protect ~finally:(fun () -> Minplus.set_cache_enabled prev) f

let same_curve a b = Pwl.segments a = Pwl.segments b

let qtest_cache_conv =
  qtest ~count:100 "cached conv = uncached conv"
    QCheck2.Gen.(pair gen_concave gen_concave)
    (fun (f, g) ->
      let cached = with_cache true (fun () -> Minplus.conv f g) in
      let fresh =
        with_cache false (fun () -> Minplus.cache_clear (); Minplus.conv f g)
      in
      same_curve cached fresh)

let qtest_cache_deconv =
  qtest ~count:100 "cached deconv = uncached deconv"
    QCheck2.Gen.(pair gen_concave gen_convex)
    (fun (alpha, beta) ->
      QCheck2.assume (Pwl.final_slope alpha <= Pwl.final_slope beta);
      let cached = with_cache true (fun () -> Minplus.deconv alpha beta) in
      let fresh =
        with_cache false (fun () ->
            Minplus.cache_clear ();
            Minplus.deconv alpha beta)
      in
      same_curve cached fresh)

let test_cache_hits () =
  with_cache true @@ fun () ->
  Minplus.cache_clear ();
  let before = (Minplus.cache_stats ()).hits in
  let f = Pwl.min_list [ Pwl.affine ~y0:2. ~slope:1.; Pwl.affine ~y0:5. ~slope:0.3 ] in
  let g = Testutil.rate_latency ~rate:2. ~latency:1. in
  let a = Minplus.deconv f g in
  let b = Minplus.deconv f g in
  Alcotest.(check bool) "identical results" true (same_curve a b);
  let after = (Minplus.cache_stats ()).hits in
  Alcotest.(check bool) "repeat lookup hit" true (after > before)

(* eval_seq is the batch kernel under deconv: must agree with pointwise
   eval on sorted probe sets, including breakpoints (jump points). *)
let qtest_eval_seq =
  qtest ~count:200 "eval_seq/eval_left_seq = pointwise eval"
    QCheck2.Gen.(pair gen_concave (list_size (int_range 0 20) gen_time))
    (fun (f, ts) ->
      let ts = Array.of_list (List.sort Float.compare (0. :: Pwl.breakpoints f @ ts)) in
      let vs = Pwl.eval_seq f ts in
      let vls = Pwl.eval_left_seq f ts in
      Array.for_all2 (fun t v -> v = Pwl.eval f t) ts vs
      && Array.for_all2 (fun t v -> v = Pwl.eval_left f t) ts vls)

(* The Incremental registry (clearers/sizers lists, the [on] flag) and
   each analysis memo table are shared across netcalc.par domains: a
   storm of memoize calls racing concurrent clears must only ever cause
   recomputation, never a wrong value, a lost registration, or a crash.
   On 4.14 Par degrades to sequential and this pins the same
   contract. *)
let test_incremental_concurrent_clear () =
  let t = Incremental.table () in
  let net = (Tandem.make ~n:2 ~utilization:0.5 ()).network in
  (* 64 distinct structural keys from one network: the sp_blocking
     option enters the fingerprint. *)
  let keys =
    Array.init 64 (fun i ->
        Incremental.net_key
          ~options:(Options.with_blocking (float_of_int i) Options.default)
          net)
  in
  let results =
    with_jobs 4 (fun () ->
        Par.map
          (fun i ->
            if i mod 16 = 0 then begin
              Incremental.clear ();
              -1
            end
            else Incremental.memoize t keys.(i mod 64) (fun () -> i mod 64))
          (List.init 256 Fun.id))
  in
  List.iteri
    (fun i v ->
      if i mod 16 <> 0 then
        Alcotest.(check int) (Printf.sprintf "memoize i=%d" i) (i mod 64) v)
    results;
  (* The table survived the clears and is still functional. *)
  Alcotest.(check int) "post-storm memoize" 7
    (Incremental.memoize t keys.(0) (fun () -> 7))

(* A memoized analysis is shared by every reader in the process, Par
   workers included ([Engine.compare_all] reads one Decomposed pass from
   four legs at once), and it keeps each per-hop backlog once a read
   has computed it.  Four domains read every per-hop backlog of one
   shared analysis at once, two in route order and two in reverse: no
   read may raise, and each must return the bits of a sequential read
   of a fresh analysis.  Ten shared analyses per network and engine,
   and enough flows that the store grows while the domains fill it: a
   store without its lock fails this test in some runs (a read raises
   [Invalid_argument "index out of bounds"]), or hangs. *)
let test_concurrent_backlog_reads () =
  let nets =
    [
      ( "randomnet",
        Randomnet.generate
          { Randomnet.default with layers = 6; per_layer = 4; num_flows = 96;
            seed = 7 } );
      ( "sp tandem",
        (Tandem.make ~n:4 ~utilization:0.6
           ~discipline:Discipline.Static_priority ())
          .network );
    ]
  in
  List.iter
    (fun (name, net) ->
      let hops =
        List.concat_map
          (fun (f : Flow.t) -> List.map (fun s -> (f.id, s)) f.route)
          (Network.flows net)
      in
      let check engine analyze local_backlog =
        (* With the memo off every analysis is fresh. *)
        let fresh () = Incremental.with_enabled false analyze in
        let read a hops =
          List.map
            (fun (flow, server) ->
              ((flow, server), Int64.bits_of_float (local_backlog a ~flow ~server)))
            hops
          |> List.sort compare
        in
        let want = read (fresh ()) hops in
        for round = 1 to 10 do
          let shared = fresh () in
          with_jobs 4 (fun () ->
              Par.map
                (fun d -> read shared (if d < 2 then hops else List.rev hops))
                [ 0; 1; 2; 3 ])
          |> List.iteri (fun d got ->
                 Alcotest.(check (list (pair (pair int int) int64)))
                   (Printf.sprintf "%s %s, round %d, domain %d" name engine
                      round d)
                   want got)
        done
      in
      check "decomposed" (fun () -> Decomposed.analyze net) Decomposed.local_backlog;
      check "integrated"
        (fun () -> Integrated.analyze ~strategy:Pairing.Greedy net)
        Integrated.local_backlog)
    nets

let suite =
  ( "par",
    [
      test "map preserves order" test_map_order;
      test "mapi" test_mapi;
      test "map_reduce folds in order" test_map_reduce;
      test "exception propagation" test_exception_propagation;
      test "exception is the smallest failing index"
        test_exception_smallest_index;
      test "nested maps" test_nested;
      test "table byte-identical across jobs" test_jobs_invariance;
      test "sweep engine invariant across jobs and on/off"
        test_sweep_engine_invariance;
      test "compare_all identical across jobs" test_compare_all_invariance;
      test "fixed point identical across jobs" test_fixed_point_invariance;
      test "obs safe under concurrent recording" test_obs_concurrent;
      test "incremental memoize races clear (4 domains)"
        test_incremental_concurrent_clear;
      test "shared analyses read their backlogs from 4 domains at once"
        test_concurrent_backlog_reads;
      qtest_cache_conv;
      qtest_cache_deconv;
      test "repeated deconv hits the cache" test_cache_hits;
      qtest_eval_seq;
    ] )
