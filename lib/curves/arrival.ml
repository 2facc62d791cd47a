
type spec =
  | Token_bucket of { sigma : float; rho : float; peak : float }
  | Multi of spec list
  | General of Pwl.t

type t = Pwl.t

let rec curve_of_spec = function
  | Token_bucket { sigma; rho; peak } ->
      let tb = Pwl.affine ~y0:sigma ~slope:rho in
      if peak = infinity then tb
      else Pwl.min_pw (Pwl.affine ~y0:0. ~slope:peak) tb
  | Multi specs -> Pwl.min_list (List.map curve_of_spec specs)
  | General c -> c

let rec validate = function
  | Token_bucket { sigma; rho; peak } ->
      if sigma < 0. then invalid_arg "Arrival.make: negative burst";
      if rho < 0. then invalid_arg "Arrival.make: negative rate";
      if peak < rho then invalid_arg "Arrival.make: peak below sustained rate"
  | Multi [] -> invalid_arg "Arrival.make: empty Multi"
  | Multi specs -> List.iter validate specs
  | General c -> (
      if not (Pwl.is_nondecreasing c) then
        invalid_arg "Arrival.make: decreasing envelope";
      match Pwl.shape c with
      | `Concave | `Affine -> ()
      | `Convex | `General ->
          invalid_arg "Arrival.make: arrival curves must be concave")

let make spec =
  validate spec;
  curve_of_spec spec

let token_bucket ?(peak = infinity) ~sigma ~rho () =
  make (Token_bucket { sigma; rho; peak })

let paper_source ~sigma ~rho = token_bucket ~peak:1. ~sigma ~rho ()
let of_curve c = make (General c)
let curve a = a
let rate a = Pwl.final_slope a
let burst a = Pwl.value_at_zero a
let eval a t = Pwl.eval a t

let token_params c =
  let rho = Pwl.final_slope c in
  let x_last = Pwl.last_breakpoint c in
  let sigma = Pwl.eval c x_last -. (rho *. x_last) in
  let peak =
    if Pwl.value_at_zero c > 0. then infinity
    else
      match Pwl.segments c with
      | (_, _, s0) :: _ :: _ -> s0
      | _ -> infinity
  in
  (sigma, rho, peak)
