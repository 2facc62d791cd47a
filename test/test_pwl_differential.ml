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
    ] )
