(* netcalc.par: the pool must behave exactly like List.map whatever the
   jobs count — same order, same exceptions, byte-identical downstream
   tables — and the pwl conv cache must be invisible except for
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

(* The bench figures route through the incremental sweep engine: the
   printed table must not care how many workers serve the grid, nor
   whether its cells come from the shared passes or from one
   compare_all per cell.  The grid's sigma is one no other test sweeps,
   so the jobs=4 grid runs cold and the jobs=1 one is served from the
   memo. *)
let sweep_hops = [ 2; 4 ] and sweep_loads = [ 0.2; 0.5; 0.8 ]
let sweep_sigma = 1.0625

let sweep_table cells =
  let tbl = Table.create ~header:[ "U"; "n"; "D_D"; "D_SC"; "D_I" ] in
  List.iter2
    (fun (u, n) (c : Engine.comparison) ->
      Table.add_floats tbl
        [ u; float_of_int n; c.decomposed; c.service_curve; c.integrated ])
    (List.concat_map (fun u -> List.map (fun n -> (u, n)) sweep_hops)
       sweep_loads)
    cells;
  Table.to_string tbl

let grid_table () =
  sweep_table
    (Sweep_engine.tandem_grid ~sigma:sweep_sigma ~hops:sweep_hops
       ~loads:sweep_loads ())

let per_cell_table () =
  sweep_table
    (per_cell_grid ~sigma:sweep_sigma ~hops:sweep_hops ~loads:sweep_loads ())

let test_sweep_engine_invariance () =
  let variants =
    [
      ("grid jobs=4", fun () -> with_jobs 4 grid_table);
      ("grid jobs=1", fun () -> with_jobs 1 grid_table);
      ("per-cell jobs=1", fun () -> with_jobs 1 per_cell_table);
      ("per-cell jobs=4", fun () -> with_jobs 4 per_cell_table);
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

(* Cache transparency: a hit must return the bits of the miss that
   filled it, on random concave curve pairs.  After [cache_clear] the
   first conv misses and the second hits; after an intern-table reset
   both operands get fresh uids (uids are never reused), so a third
   call misses and recomputes the same segments. *)
let same_curve a b =
  let bits f =
    List.map
      (fun (x, y, s) -> List.map Int64.bits_of_float [ x; y; s ])
      (Pwl.segments f)
  in
  bits a = bits b

let qtest_cache_conv =
  qtest ~count:100 "cached conv = uncached conv"
    QCheck2.Gen.(pair gen_concave gen_concave)
    (fun (f, g) ->
      let stats () =
        let s = Minplus.cache_stats () in
        (s.hits, s.misses)
      in
      let call () =
        let h0, m0 = stats () in
        let r = Minplus.conv f g in
        let h1, m1 = stats () in
        (r, (h1 - h0, m1 - m0))
      in
      Pwl.intern_clear ();
      Minplus.cache_clear ();
      let fresh, first = call () in
      let hit, second = call () in
      Pwl.intern_clear ();
      let recomputed, third = call () in
      (first, second, third) = ((0, 1), (1, 0), (0, 1))
      && same_curve fresh hit
      && same_curve fresh recomputed)

let test_cache_hits () =
  Minplus.cache_clear ();
  let before = (Minplus.cache_stats ()).hits in
  let f = Testutil.rate_latency ~rate:1.5 ~latency:2. in
  let g = Testutil.rate_latency ~rate:2. ~latency:1. in
  let a = Minplus.conv f g in
  let b = Minplus.conv f g in
  Alcotest.(check bool) "identical results" true (same_curve a b);
  let after = (Minplus.cache_stats ()).hits in
  Alcotest.(check bool) "repeat lookup hit" true (after > before)

(* The sweep memo is one table shared by netcalc.par workers.  Four
   domains run a grid whose loads repeat, on a sigma no other test
   sweeps, so the first lookups of each load race on misses.  A
   concurrent duplicate compute is allowed; a wrong, lost or torn value
   is not: the grid must have the bits of the same call at jobs 1 and
   of one compare_all per cell. *)
let test_sweep_memo_concurrent_lookups () =
  let sigma = 1.1875 and hops = [ 2; 4 ] in
  let loads = [ 0.3; 0.6; 0.3; 0.6; 0.3; 0.6 ] in
  let bits_of cells =
    List.concat_map
      (fun (c : Engine.comparison) ->
        List.map Int64.bits_of_float
          [ c.decomposed; c.service_curve; c.integrated; c.decomposed_backlog;
            c.integrated_backlog ])
      cells
  in
  let grid () = bits_of (Sweep_engine.tandem_grid ~sigma ~hops ~loads ()) in
  let raced = with_jobs 4 grid in
  let sequential = with_jobs 1 grid in
  let per_cell = bits_of (per_cell_grid ~sigma ~hops ~loads ()) in
  Alcotest.(check (list int64)) "jobs 4 = jobs 1" sequential raced;
  Alcotest.(check (list int64)) "jobs 4 = per-cell compare_all" per_cell raced

(* An analysis is shared by every reader that holds it, Par workers
   included ([Engine.compare_all] reads one Decomposed pass from four
   legs at once, and the sweep memo hands one pass to every grid on its
   tandem), and it keeps each per-hop backlog once a read has computed
   it.  Four domains read every per-hop backlog of one
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
      let check engine fresh local_backlog =
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
      test "sweep engine invariant across jobs, = per-cell compare_all"
        test_sweep_engine_invariance;
      test "compare_all identical across jobs" test_compare_all_invariance;
      test "fixed point identical across jobs" test_fixed_point_invariance;
      test "obs safe under concurrent recording" test_obs_concurrent;
      test "sweep memo: concurrent lookups of one table (4 domains)"
        test_sweep_memo_concurrent_lookups;
      test "shared analyses read their backlogs from 4 domains at once"
        test_concurrent_backlog_reads;
      qtest_cache_conv;
      test "repeated conv hits the cache" test_cache_hits;
    ] )
