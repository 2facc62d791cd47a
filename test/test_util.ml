(* Tests for the utility layer: tolerant comparisons, sweeps, tables. *)

open Testutil

let test_float_ops_eq () =
  let open Float_ops in
  check_bool "exact" true (1.0 =~ 1.0);
  check_bool "within tolerance" true (1.0 =~ (1.0 +. 1e-12));
  check_bool "relative tolerance on big numbers" true
    (1e12 =~ (1e12 +. 1.0 /. 1e3));
  check_bool "beyond tolerance" false (1.0 =~ 1.001);
  check_bool "inf = inf" true (infinity =~ infinity);
  check_bool "inf <> finite" false (infinity =~ 1e308);
  check_bool "nan never equal" false (Float.nan =~ Float.nan)

let test_float_ops_order () =
  let open Float_ops in
  check_bool "strictly less" true (1.0 <~ 2.0);
  check_bool "not less within tolerance" false (1.0 <~ (1.0 +. 1e-12));
  check_bool "leq on equal" true (1.0 <=~ 1.0);
  check_bool "leq on tolerance" true ((1.0 +. 1e-12) <=~ 1.0)

let test_float_ops_misc () =
  approx "positive part" 0. (Float_ops.positive_part (-2.));
  approx "max of empty" neg_infinity (Float_ops.max_list []);
  approx "max list" 7. (Float_ops.max_list [ 3.; 7.; -1. ])

let test_sweep_steps () =
  Alcotest.(check (list (float 1e-9)))
    "inclusive of endpoint"
    [ 0.1; 0.2; 0.3 ]
    (Sweep.steps ~lo:0.1 ~hi:0.3 ~step:0.1);
  Alcotest.(check int) "many steps" 9
    (List.length (Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1))

(* The bench grid: index-based generation + decimal snapping must
   reproduce the exact float literals 0.1 .. 0.9 — no accumulation
   drift (0.1 +. 0.2 alone is already 0.30000000000000004).  Exact
   equality on purpose. *)
let test_sweep_steps_exact () =
  let got = Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1 in
  let want = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  Alcotest.(check int) "length" (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      if w <> g then Alcotest.failf "grid point: expected %.17g, got %.17g" w g)
    want got;
  (* Robustness cases: single point, empty range. *)
  Alcotest.(check (list (float 0.))) "single point" [ 2. ]
    (Sweep.steps ~lo:2. ~hi:2. ~step:0.5);
  Alcotest.(check (list (float 0.))) "empty when hi < lo" []
    (Sweep.steps ~lo:1. ~hi:0. ~step:0.25)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "yyy" ];
  Table.add_floats t [ 1.5; infinity ];
  let s = Table.to_string t in
  check_bool "has header" true (contains s "bb");
  check_bool "renders inf" true (contains s "inf");
  check_bool "renders float" true (contains s "1.5")

let test_table_padding_and_errors () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  check_bool "short rows padded" true
    (String.length (Table.to_string t) > 0);
  try
    Table.add_row t [ "1"; "2"; "3"; "4" ];
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_table_csv () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv escaping"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n" csv

(* RFC 4180: embedded line breaks (LF or CR) force quoting too, and
   quotes inside quoted cells are doubled — a scenario label with any
   of these must not corrupt the row/column structure. *)
let test_table_csv_line_breaks () =
  let t = Table.create ~header:[ "label"; "value" ] in
  Table.add_row t [ "line\nbreak"; "2" ];
  Table.add_row t [ "carriage\rreturn"; "3" ];
  Table.add_row t [ "both\"and,more\n"; "4" ];
  Alcotest.(check string) "newline and cr quoting"
    ("label,value\n\"line\nbreak\",2\n\"carriage\rreturn\",3\n"
   ^ "\"both\"\"and,more\n\",4\n")
    (Table.to_csv t)

let suite =
  ( "util",
    [
      test "float equality" test_float_ops_eq;
      test "float ordering" test_float_ops_order;
      test "clamp and friends" test_float_ops_misc;
      test "steps" test_sweep_steps;
      test "steps exact decimal grid" test_sweep_steps_exact;
      test "table rendering" test_table_render;
      test "table padding and errors" test_table_padding_and_errors;
      test "table csv" test_table_csv;
      test "table csv line breaks" test_table_csv_line_breaks;
    ] )
