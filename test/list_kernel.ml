(* Candidate lists: the union of both operands' breakpoints, plus the
   crossing of f - g inside each interval of it. *)

let merged_breakpoints f g =
  List.sort_uniq Float.compare (Pwl.breakpoints f @ Pwl.breakpoints g)

(* Right slope at t: the slope of the last segment starting at or
   before t. *)
let slope_at f t =
  let t = Float.max t 0. in
  List.fold_left
    (fun acc (x, _, s) -> if x <= t then s else acc)
    nan (Pwl.segments f)

(* Bit-identical operands: the fast path [min_pw] and [max_pw] take. *)
let same f g = Pwl.compare f g = 0

let crossings f g candidates =
  let cross a b =
    let h = Pwl.eval f a -. Pwl.eval g a in
    let sh = slope_at f a -. slope_at g a in
    if Float_ops.eq_exact sh 0. then None
    else
      let t = a -. (h /. sh) in
      if t > a +. (1e-12 *. Float.max 1. (Float.abs a)) && t < b then Some t
      else None
  in
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
        let acc = match cross a b with Some t -> t :: acc | None -> acc in
        walk acc rest
    | [ a ] -> ( match cross a infinity with Some t -> t :: acc | None -> acc)
    | [] -> acc
  in
  walk [] candidates

let combine_extrema pick pick_slope f g =
  let open Float_ops in
  let base = merged_breakpoints f g in
  let candidates = List.sort_uniq Float.compare (base @ crossings f g base) in
  Pwl.make
    (List.map
       (fun x ->
         let yf = Pwl.eval f x and yg = Pwl.eval g x in
         let slope =
           if yf <~ yg then
             if eq_exact (pick yf yg) yf then slope_at f x else slope_at g x
           else if yg <~ yf then
             if eq_exact (pick yf yg) yg then slope_at g x else slope_at f x
           else pick_slope (slope_at f x) (slope_at g x)
         in
         (x, pick yf yg, slope))
       candidates)

let min_pw f g = if same f g then f else combine_extrema Float.min Float.min f g
let max_pw f g = if same f g then f else combine_extrema Float.max Float.max f g

let sup_diff f g =
  let open Float_ops in
  if Pwl.final_slope g <~ Pwl.final_slope f then infinity
  else
    let candidates = merged_breakpoints f g in
    let at t =
      Float.max
        (Pwl.eval f t -. Pwl.eval g t)
        (Pwl.eval_left f t -. Pwl.eval_left g t)
    in
    Float_ops.max_list (List.map at candidates)

let sup_on f ~lo ~hi =
  if hi < lo then invalid_arg "Pwl.sup_on: hi < lo";
  let both t = [ Pwl.eval f t; Pwl.eval_left f t ] in
  if hi = infinity then
    if Pwl.final_slope f > 0. then infinity
    else
      let candidates = lo :: List.filter (fun x -> x >= lo) (Pwl.breakpoints f) in
      Float_ops.max_list (List.concat_map both candidates)
  else
    let inside = List.filter (fun x -> x > lo && x < hi) (Pwl.breakpoints f) in
    Float_ops.max_list (List.concat_map both (lo :: hi :: inside))

let first_crossing_under f ~below =
  let open Float_ops in
  let base = merged_breakpoints f below in
  let candidates =
    List.sort Float.compare (base @ crossings f below base)
    |> List.filter (fun t -> t >= 0.)
  in
  let h t = Pwl.eval f t -. Pwl.eval below t in
  let stays_below t next =
    let probe = match next with Some n -> (t +. n) /. 2. | None -> t +. 1. in
    h probe <=~ 0.
  in
  let rec scan = function
    | t :: rest ->
        let next = match rest with n :: _ -> Some n | [] -> None in
        if h t <~ 0. then t
        else if h t =~ 0. && stays_below t next then t
        else scan rest
    | [] ->
        if Pwl.final_slope f <~ Pwl.final_slope below then
          let t0 = Float_ops.max_list candidates in
          let slope = Pwl.final_slope f -. Pwl.final_slope below in
          t0 +. (h t0 /. -.slope)
        else infinity
  in
  scan candidates

let equal f g =
  same f g
  ||
  let open Float_ops in
  let candidates = merged_breakpoints f g in
  let rec between = function
    | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: between rest
    | [ a ] -> [ a +. 1.; a +. 2. ]
    | [] -> []
  in
  List.for_all
    (fun t -> Pwl.eval f t =~ Pwl.eval g t)
    (candidates @ between candidates)

let shift_left f d =
  if d < 0. then invalid_arg "Pwl.shift_left: negative shift";
  if Float_ops.eq_exact d 0. then f
  else
    let rec build = function
      | (_, _, _) :: ((nx, _, _) :: _ as rest) when nx <= d -> build rest
      | (x, y, s) :: rest ->
          (0., y +. (s *. (d -. x)), s)
          :: List.map (fun (x, y, s) -> (x -. d, y, s)) rest
      | [] -> assert false
    in
    Pwl.make (build (Pwl.segments f))

let shift_right f d =
  if d < 0. then invalid_arg "Pwl.shift_right: negative shift";
  if Float_ops.eq_exact d 0. then f
  else
    Pwl.make
      ((0., 0., 0.) :: List.map (fun (x, y, s) -> (x +. d, y, s)) (Pwl.segments f))

let scale k f =
  Pwl.make (List.map (fun (x, y, s) -> (x, k *. y, k *. s)) (Pwl.segments f))
