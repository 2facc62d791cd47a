(* Differential tests of the exact piecewise-linear constructions
   against brute-force references, on adversarial GENERAL-shape inputs
   (arbitrary slopes, jumps, flats, near-vertical burst segments).
   These generators found real bugs that the concave/convex generators
   of the other suites could not reach. *)

open Testutil

let gen_general =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* xs = list_repeat n (float_range 0.01 3.) in
    let* ys = list_repeat n (float_range 0. 10.) in
    let* ss = list_repeat n (float_range (-1.) 5.) in
    let rec build x acc = function
      | (w, (y, s)) :: rest -> build (x +. w) ((x, y, s) :: acc) rest
      | [] -> List.rev acc
    in
    return (Pwl.make (build 0. [] (List.combine xs (List.combine ys ss)))))

let gen_general_monotone =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* ws = list_repeat n (float_range 0.01 3.) in
    let* dys = list_repeat n (float_range 0. 2.) in
    let* ss = list_repeat n (float_range 0. 3.) in
    let* steep = QCheck2.Gen.bool in
    let rec build x y acc = function
      | (w, (dy, s)) :: rest ->
          let s = if steep && acc = [] then 1e4 else s in
          build (x +. w) (y +. dy +. (s *. w)) ((x, y +. dy, s) :: acc) rest
      | [] -> List.rev acc
    in
    return (Pwl.make (build 0. 0. [] (List.combine ws (List.combine dys ss)))))

let grid = List.init 120 (fun i -> float_of_int i /. 8.)

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)

(* Covers [sum] too: a pairwise tree over 0-40 general curves. *)
let prop_add_exact =
  qtest ~count:300 "add is exact on general shapes"
    QCheck2.Gen.(triple gen_general gen_general (list_size (int_range 0 40) gen_general))
    (fun (f, g, fs) ->
      let total = Pwl.sum fs in
      List.for_all
        (fun t ->
          close (Pwl.eval (Pwl.add f g) t) (Pwl.eval f t +. Pwl.eval g t)
          && close (Pwl.eval total t)
               (List.fold_left (fun acc h -> acc +. Pwl.eval h t) 0. fs))
        grid)

let prop_min_max_exact =
  qtest ~count:300 "min/max are exact on general shapes"
    QCheck2.Gen.(pair gen_general gen_general)
    (fun (f, g) ->
      List.for_all
        (fun t ->
          close
            (Pwl.eval (Pwl.min_pw f g) t)
            (Float.min (Pwl.eval f t) (Pwl.eval g t))
          && close
               (Pwl.eval (Pwl.max_pw f g) t)
               (Float.max (Pwl.eval f t) (Pwl.eval g t)))
        grid)

let prop_running_max_exact =
  qtest ~count:300 "running_max equals the exact prefix supremum"
    gen_general
    (fun f ->
      let m = Pwl.running_max f in
      Pwl.is_nondecreasing m
      && List.for_all
           (fun t -> close (Pwl.eval m t) (Pwl.sup_on f ~lo:0. ~hi:t))
           grid)

let prop_compose_exact =
  qtest ~count:300 "compose is exact pointwise on general shapes"
    QCheck2.Gen.(pair gen_general gen_general_monotone)
    (fun (outer, inner) ->
      let h = Pwl.compose ~outer ~inner in
      List.for_all
        (fun t -> close (Pwl.eval h t) (Pwl.eval outer (Pwl.eval inner t)))
        grid)

let prop_inverse_galois_general =
  qtest ~count:300 "pseudo-inverse is the exact upper inverse"
    gen_general_monotone
    (fun f ->
      QCheck2.assume (Pwl.final_slope f > 1e-3);
      let inv = Pwl.pseudo_inverse f in
      List.for_all
        (fun y ->
          (* reference sup { x : f x <= y } by fine scan, valid when f
             exceeds y within the scanned range *)
          if Pwl.eval f 100. <= y +. 1e-6 then true
          else begin
            let r = ref 0. in
            for i = 0 to 5000 do
              let x = float_of_int i /. 50. in
              if Pwl.eval f x <= y then r := x
            done;
            Float.abs (Pwl.eval inv y -. !r) <= 0.03
          end)
        grid)

let prop_conv_with_rate_general =
  qtest ~count:200 "Reich's equation on general monotone inputs"
    QCheck2.Gen.(pair gen_general_monotone gen_rate)
    (fun (g, rate) ->
      let d = Minplus.conv_with_rate ~rate g in
      List.for_all
        (fun t ->
          let ref_v =
            List.fold_left
              (fun acc b ->
                if b <= t then
                  Float.min acc
                    (Float.min
                       (Pwl.eval g b +. (rate *. (t -. b)))
                       (Pwl.eval_left g b +. (rate *. (t -. b))))
                else acc)
              (Float.min (rate *. t) (Pwl.eval g t))
              (Pwl.breakpoints g)
          in
          Pwl.eval d t <= ref_v +. 1e-6)
        grid)

let prop_shift_left_general =
  qtest ~count:300 "shift_left is exact on general shapes"
    QCheck2.Gen.(pair gen_general (float_range 0. 8.))
    (fun (f, d) ->
      List.for_all
        (fun t -> close (Pwl.eval (Pwl.shift_left f d) t) (Pwl.eval f (t +. d)))
        grid)

(* The array kernel against the list versions it replaced
   ([List_kernel]), compared bit for bit: same segments, same floats,
   same exception. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_segments f g =
  List.equal
    (fun (x, y, s) (x', y', s') -> same_bits x x' && same_bits y y' && same_bits s s')
    (Pwl.segments f) (Pwl.segments g)

let outcome op = match op () with v -> Ok v | exception Invalid_argument m -> Error m

let agree same kernel reference =
  match (outcome kernel, outcome reference) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let curves_agree kernel reference = agree same_segments kernel reference
let floats_agree kernel reference = agree same_bits kernel reference

let kernel_agrees f g ~d ~k ~lo ~w =
  curves_agree (fun () -> Pwl.min_pw f g) (fun () -> List_kernel.min_pw f g)
  && curves_agree (fun () -> Pwl.max_pw f g) (fun () -> List_kernel.max_pw f g)
  && curves_agree (fun () -> Pwl.nonneg f) (fun () -> List_kernel.max_pw f Pwl.zero)
  && floats_agree (fun () -> Pwl.sup_diff f g) (fun () -> List_kernel.sup_diff f g)
  && floats_agree
       (fun () -> Pwl.sup_on f ~lo ~hi:(lo +. w))
       (fun () -> List_kernel.sup_on f ~lo ~hi:(lo +. w))
  && floats_agree
       (fun () -> Pwl.sup_on f ~lo ~hi:infinity)
       (fun () -> List_kernel.sup_on f ~lo ~hi:infinity)
  && floats_agree
       (fun () -> Pwl.first_crossing_under f ~below:g)
       (fun () -> List_kernel.first_crossing_under f ~below:g)
  && Bool.equal (Pwl.equal f g) (List_kernel.equal f g)
  && curves_agree (fun () -> Pwl.shift_left f d) (fun () -> List_kernel.shift_left f d)
  && curves_agree (fun () -> Pwl.shift_right f d) (fun () -> List_kernel.shift_right f d)
  && curves_agree (fun () -> Pwl.scale k f) (fun () -> List_kernel.scale k f)

let prop_kernel_bits =
  qtest ~count:500 "array kernel = list kernel, bit for bit"
    QCheck2.Gen.(
      tup4 gen_general gen_general (pair (float_range 0. 8.) (float_range (-3.) 3.))
        (pair (float_range (-1.) 12.) (float_range 0. 6.)))
    (fun (f, g, (d, k), (lo, w)) ->
      (* a shift at a breakpoint and a window ending on one hit the
         boundary cases of the cursor seeks *)
      let bp = List.nth (Pwl.breakpoints f) (List.length (Pwl.breakpoints f) / 2) in
      (* near-equal but not bit-identical, so [equal] scans every point *)
      let f' = Pwl.shift_left (Pwl.shift_right f d) d in
      kernel_agrees f g ~d ~k ~lo ~w
      && kernel_agrees g f ~d:bp ~k ~lo:bp ~w
      && kernel_agrees f f' ~d ~k ~lo:0. ~w:bp
      && Bool.equal (Pwl.equal f f') (List_kernel.equal f f'))

let kernel_case name f g =
  test name (fun () ->
      List.iter
        (fun (d, k, lo, w) ->
          check_bool
            (Printf.sprintf "%s, d=%g k=%g lo=%g w=%g" name d k lo w)
            true
            (kernel_agrees f g ~d ~k ~lo ~w && kernel_agrees g f ~d ~k ~lo ~w))
        [ (0., 1., 0., 0.); (1., -2., 1., 1.); (2.5, 0.5, 2., 3.); (7., 3., -1., 10.) ])

let test_coincident =
  kernel_case "kernel bits: coincident breakpoints"
    (Pwl.make [ (0., 1., 1.); (1., 2.5, 0.5); (3., 3., 0.) ])
    (Pwl.make [ (0., 0., 2.); (1., 2., 0.); (3., 4., 1.) ])

(* f - g is 1e-13 at the breakpoint 1 and falls at slope -1, so the
   crossing lands 1e-13 past it, inside the 1e-12 margin: no
   breakpoint is added there. *)
let test_near_crossing_dropped =
  let f = Pwl.affine ~y0:0. ~slope:1. in
  let g = Pwl.make [ (0., 5., 0.); (1., 1. -. 1e-13, 2.) ] in
  test "kernel bits: a crossing 1e-13 past a breakpoint is dropped" (fun () ->
      check_bool "agrees" true (kernel_agrees f g ~d:1. ~k:2. ~lo:0. ~w:2.);
      List.iter
        (fun h ->
          check_bool "no breakpoint in (1, 1 + 1e-12]" false
            (List.exists (fun x -> x > 1. && x <= 1. +. 1e-12) (Pwl.breakpoints h)))
        [ Pwl.min_pw f g; Pwl.max_pw f g ])

let test_token_bucket =
  let peak = Pwl.affine ~y0:0. ~slope:2. and bucket = Pwl.affine ~y0:3. ~slope:0.5 in
  test "kernel bits: two affine operands (peaked token bucket)" (fun () ->
      check_bool "agrees" true (kernel_agrees peak bucket ~d:1. ~k:3. ~lo:0. ~w:4.);
      check_bool "agrees, swapped" true
        (kernel_agrees bucket peak ~d:1. ~k:3. ~lo:0. ~w:4.);
      let m = Pwl.min_pw peak bucket in
      check_bool "peak line then bucket, crossing at sigma / (p - rho)" true
        (same_segments m (Pwl.make [ (0., 0., 2.); (2., 4., 0.5) ])))

let test_same_operands =
  let f = Pwl.make [ (0., 1., 1.); (2., 3., 0.) ] in
  let f' = Pwl.make (Pwl.segments f) in
  test "kernel bits: bit-identical operands return the first" (fun () ->
      check_bool "distinct values" false (f == f');
      check_bool "min_pw" true (Pwl.min_pw f f' == f);
      check_bool "max_pw" true (Pwl.max_pw f f' == f);
      check_bool "equal" true (Pwl.equal f f'))

(* [make] stores a [-0.] first abscissa as [+0.], so a merge gets the
   same first point whichever operand it reads it from. *)
let test_negative_zero_start =
  let g = Pwl.make [ (0., 1., 1.); (2., 3., 0.) ] in
  let h = Pwl.make [ (-0., 2., 0.5); (1., 2.5, 0.) ] in
  test "kernel bits: a -0. first abscissa is stored as +0." (fun () ->
      List.iter
        (fun c ->
          check_bool "first abscissa is +0." true
            (same_bits (List.hd (Pwl.breakpoints c)) 0.))
        [ h; Pwl.min_pw g h; Pwl.min_pw h g; Pwl.max_pw g h ];
      check_bool "agrees" true (kernel_agrees g h ~d:1. ~k:2. ~lo:0. ~w:2.))

let suite =
  ( "pwl-differential",
    [
      prop_add_exact;
      prop_min_max_exact;
      prop_running_max_exact;
      prop_compose_exact;
      prop_inverse_galois_general;
      prop_conv_with_rate_general;
      prop_shift_left_general;
      prop_kernel_bits;
      test_coincident;
      test_near_crossing_dropped;
      test_token_bucket;
      test_same_operands;
      test_negative_zero_start;
    ] )
