(* Shared helpers for the test suites. *)


let approx ?(tol = 1e-6) msg expected actual =
  let ok =
    if expected = infinity then actual = infinity
    else if expected = neg_infinity then actual = neg_infinity
    else
      Float.abs (expected -. actual)
      <= tol *. Float.max 1.0 (Float.abs expected)
  in
  if not ok then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let check_bool = Alcotest.(check bool)
let test name f = Alcotest.test_case name `Quick f

(* The reference a [Sweep_engine.tandem_grid] is checked against: one
   compare_all per cell, on that cell's own tandem, in the grid's
   row-major order. *)
let per_cell_grid ?(sigma = 1.) ?(peak = 1.) ~hops ~loads () =
  List.concat_map
    (fun u ->
      List.map
        (fun n ->
          let t = Tandem.make ~n ~utilization:u ~sigma ~peak () in
          Engine.compare_all ~with_theta:false
            ~strategy:(Pairing.Along_route 0) t.network 0)
        hops)
    loads

(* QCheck generators used across suites. *)

let gen_rate = QCheck2.Gen.float_range 0.05 4.0
let gen_burst = QCheck2.Gen.float_range 0.0 8.0
let gen_latency = QCheck2.Gen.float_range 0.0 5.0

(* A random concave nondecreasing curve: pointwise minimum of up to four
   affine pieces with nonnegative intercepts and slopes. *)
let gen_concave =
  QCheck2.Gen.(
    let affine = map2 (fun y0 s -> Pwl.affine ~y0 ~slope:s) gen_burst gen_rate in
    map Pwl.min_list (list_size (int_range 1 4) affine))

(* A random convex service-like curve: min-plus convolution of up to
   three rate-latency curves (computed directly as max(0, R(t-T))). *)
let rate_latency ~rate ~latency =
  Pwl.nonneg (Pwl.affine ~y0:(-.rate *. latency) ~slope:rate)

let gen_convex =
  QCheck2.Gen.(
    let rl = map2 (fun r t -> rate_latency ~rate:r ~latency:t) gen_rate gen_latency in
    map Minplus.conv_list (list_size (int_range 1 3) rl))

let gen_time = QCheck2.Gen.float_range 0.0 30.0

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
