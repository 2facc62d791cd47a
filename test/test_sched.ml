(* Tests for the scheduling-discipline substrates. *)

open Testutil

let tb ~sigma ~rho = Pwl.affine ~y0:sigma ~slope:rho

let test_fifo_local_delay () =
  let agg = tb ~sigma:3. ~rho:0.5 in
  approx "rate 1" 3. (Fifo.local_delay ~rate:1. ~agg);
  approx "rate 2" 1.5 (Fifo.local_delay ~rate:2. ~agg);
  approx "unstable" infinity (Fifo.local_delay ~rate:0.5 ~agg)

let test_fifo_backlog_and_busy () =
  let agg = tb ~sigma:2. ~rho:0.5 in
  approx "backlog" 2. (Fifo.backlog ~rate:1. ~agg);
  approx "busy period" 4. (Fifo.busy_period ~rate:1. ~agg)

let test_static_priority () =
  let higher = tb ~sigma:2. ~rho:0.25 in
  let own = tb ~sigma:1. ~rho:0.25 in
  (* class service = (t - 2 - 0.25 t)^+ = rate-latency(0.75, 8/3). *)
  let beta = Static_priority.class_service ~rate:1. ~higher ~blocking:0. in
  check_bool "convex" true (Service.is_service_curve beta);
  approx "latency region" 0. (Pwl.eval beta (8. /. 3.));
  (* delay = hdev(own, beta) = T + sigma/R = 8/3 + 1/0.75. *)
  approx "class delay"
    ((8. /. 3.) +. (1. /. 0.75))
    (Static_priority.local_delay ~rate:1. ~higher ~own ~blocking:0.);
  (* Blocking adds a constant to the cross traffic. *)
  let with_blocking =
    Static_priority.local_delay ~rate:1. ~higher ~own ~blocking:0.5
  in
  check_bool "blocking increases delay" true
    (with_blocking > Static_priority.local_delay ~rate:1. ~higher ~own ~blocking:0.)

let test_sp_priority_isolation () =
  (* Highest priority class sees no cross traffic. *)
  let own = tb ~sigma:1. ~rho:0.25 in
  approx "top class delay" 1.
    (Static_priority.local_delay ~rate:1. ~higher:Pwl.zero ~own ~blocking:0.)

let test_edf_feasible () =
  let a1 = tb ~sigma:1. ~rho:0.25 and a2 = tb ~sigma:1. ~rho:0.25 in
  (* Generous deadlines: feasible. *)
  check_bool "feasible" true (Edf.feasible ~rate:1. [ (a1, 5.); (a2, 5.) ]);
  (* Impossible deadlines: two simultaneous unit bursts cannot both
     clear the rate-1 server within 1. *)
  check_bool "infeasible" false (Edf.feasible ~rate:1. [ (a1, 1.); (a2, 1.) ]);
  approx "local delay = deadline" 5.
    (Edf.local_delay ~rate:1. [ (a1, 5.); (a2, 5.) ] ~deadline:5.);
  approx "infeasible local delay" infinity
    (Edf.local_delay ~rate:1. [ (a1, 1.); (a2, 1.) ] ~deadline:1.)

let test_edf_unstable () =
  (* Two rate-0.25 flows overload a rate-0.4 server: no deadline is
     feasible, however late. *)
  let flows d = [ (tb ~sigma:1. ~rho:0.25, d); (tb ~sigma:1. ~rho:0.25, d) ] in
  check_bool "infeasible" false (Edf.feasible ~rate:0.4 (flows 1e6));
  approx "unbounded" infinity
    (Edf.local_delay ~rate:0.4 (flows 1e6) ~deadline:1e6)

let test_gps () =
  let alpha = tb ~sigma:1. ~rho:0.2 in
  (* delay = sigma / r_i for fluid GPS, with r_i = 1 * 1/4. *)
  approx "fluid delay" 4.
    (Gps.local_delay ~rate:1. ~weight:1. ~total_weight:4. ~alpha)

let prop_edf_deadline_monotone =
  qtest "EDF feasibility is monotone in the deadline"
    QCheck2.Gen.(
      triple gen_burst (QCheck2.Gen.float_range 0.05 0.4)
        (QCheck2.Gen.float_range 0. 10.))
    (fun (sigma, rho, d) ->
      let curves = [ tb ~sigma ~rho; tb ~sigma ~rho ] in
      let flows d = List.map (fun c -> (c, d)) curves in
      (not (Edf.feasible ~rate:1. (flows d)))
      || Edf.feasible ~rate:1. (flows (d +. 1.)))

let prop_sp_higher_load_hurts =
  qtest "more higher-priority traffic never helps an SP class"
    QCheck2.Gen.(pair gen_burst gen_burst)
    (fun (s1, s2) ->
      let own = tb ~sigma:1. ~rho:0.1 in
      let d_small =
        Static_priority.local_delay ~rate:1.
          ~higher:(tb ~sigma:s1 ~rho:0.2) ~own ~blocking:0.
      in
      let d_big =
        Static_priority.local_delay ~rate:1.
          ~higher:(tb ~sigma:(s1 +. s2) ~rho:0.2)
          ~own ~blocking:0.
      in
      d_big >= d_small -. 1e-6)

let suite =
  ( "sched",
    [
      test "fifo local delay" test_fifo_local_delay;
      test "fifo backlog/busy period" test_fifo_backlog_and_busy;
      test "static priority" test_static_priority;
      test "sp top class isolation" test_sp_priority_isolation;
      test "edf feasibility" test_edf_feasible;
      test "edf unstable" test_edf_unstable;
      test "gps" test_gps;
      prop_edf_deadline_monotone;
      prop_sp_higher_load_hurts;
    ] )
