(* Ultimately pseudo-periodic (UPP) curves, after Nancy (Zippo & Stea,
   arXiv 2205.11449).  A curve is a finite {!Pwl.t} prefix — trusted on
   the window [0, rank + period) — plus a pseudo-periodic law: for every
   [t >= rank],

     f (t + period) = f t + increment.

   The representation size is therefore independent of the analysis
   horizon: a staircase evaluated at t = 10^6 costs the same handful of
   segments as at t = 10.  Eventually-affine curves (every token-bucket
   and rate-latency curve of the paper) are the degenerate case
   [affine_tail = true]: the base {!Pwl.t} is the whole function and the
   periodic law is the tautological one over its final slope.  All
   operations keep that case {e exact} by delegating to the finite
   [Pwl]/[Minplus] kernels on the very same hash-consed values, so on
   the paper's curves [Upp] computes bit for bit what [Minplus] does
   (pinned by the algebra tests).

   Genuinely periodic curves go through windowed kernels instead: unroll
   both operands over a structure-sized window (transient + a couple of
   periods — never the analysis horizon), compute the exact finite
   operation there following the UPP decomposition into
   transient/periodic sub-convolutions ({!Par.map}-parallel), then
   recover the periodic law by verifying [w (t + d) = w t + c] over the
   last unrolled period and minimizing the result (rank reduction,
   period division, affine-tail collapse).  Verification is
   tolerance-based ({!Float_ops.( =~ )}): the periodic path trades bit
   exactness for horizon independence, which the dense-grid equivalence
   tests bound. *)

type t = {
  base : Pwl.t;  (* trusted on [0, rank + period); whole f when affine *)
  rank : float;  (* T >= 0: start of the pseudo-periodic law *)
  period : float;  (* d > 0 *)
  increment : float;  (* c: growth per period *)
  affine_tail : bool;  (* true: f = base everywhere (eventually affine) *)
}

let base f = f.base
let rank f = f.rank
let period f = f.period
let increment f = f.increment
let is_affine_tail f = f.affine_tail

(* Long-run growth rate — the quantity that decides which operand's
   periodic law survives a convolution. *)
let rate f =
  if f.affine_tail then Pwl.final_slope f.base else f.increment /. f.period

let segment_count f = List.length (Pwl.breakpoints f.base)

let of_pwl p =
  { base = p;
    rank = Pwl.last_breakpoint p;
    period = 1.;
    increment = Pwl.final_slope p;
    affine_tail = true }

let to_pwl f =
  if f.affine_tail then f.base
  else
    invalid_arg
      "Upp.to_pwl: curve is genuinely periodic (horizon-unbounded); use \
       unroll ~horizon"

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let eval f t =
  if f.affine_tail || t < f.rank +. f.period then Pwl.eval f.base t
  else begin
    (* Fold t into the trusted window by whole periods; the floor can
       land one period off at representation boundaries, so nudge. *)
    let k = Float.floor ((t -. f.rank) /. f.period) in
    let k, t' =
      let t' = t -. (k *. f.period) in
      if t' < f.rank then (k -. 1., t' +. f.period)
      else if t' >= f.rank +. f.period then (k +. 1., t' -. f.period)
      else (k, t')
    in
    Pwl.eval f.base t' +. (k *. f.increment)
  end

(* ------------------------------------------------------------------ *)
(* Windows and unrolling                                               *)
(* ------------------------------------------------------------------ *)

(* Segment triples describing [p] on [lo, hi): the first triple is cut
   to start exactly at [lo].  [lo >= 0] and [lo < hi] assumed. *)
let segs_window p ~lo ~hi =
  let rec go cur = function
    | ((x, _, _) as seg) :: rest when x <= lo -> go (Some seg) rest
    | rest ->
        let head =
          match cur with
          | Some (x, y, s) -> [ (lo, y +. (s *. (lo -. x)), s) ]
          | None -> []
        in
        let rec take acc = function
          | ((x, _, _) as seg) :: rest when x < hi -> take (seg :: acc) rest
          | _ -> List.rev acc
        in
        head @ take [] rest
  in
  go None (Pwl.segments p)

(* Value of a window (segment-triple list, sorted) at [x]; the last
   triple extends to the right.  Only used on x >= first triple's x. *)
let window_eval segs x =
  let rec go best = function
    | ((sx, _, _) as seg) :: rest when sx <= x -> go (Some seg) rest
    | _ -> best
  in
  match go None segs with
  | Some (sx, sy, ss) -> sy +. (ss *. (x -. sx))
  | None -> invalid_arg "Upp.window_eval: x before window"

(* Tolerant function equality of two windows over their merged
   breakpoints and interval midpoints (midpoints catch slope
   mismatches that agree at the ends).  The two windows nominally
   cover the same interval, but one usually arrives through
   [shift_triples], whose float addition can land its first breakpoint
   an ulp outside the other window — so probes are clamped to the
   intersection. *)
let windows_equal w1 w2 =
  let open Float_ops in
  match (w1, w2) with
  | [], [] -> true
  | [], _ | _, [] -> false
  | (x1, _, _) :: _, (x2, _, _) :: _ ->
      let lo = Float.max x1 x2 in
      let xs =
        List.map (fun (x, _, _) -> Float.max x lo) w1
        @ List.map (fun (x, _, _) -> Float.max x lo) w2
        |> List.sort_uniq Float.compare
      in
      let rec mids = function
        | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: mids rest
        | [ a ] -> [ a +. 0.5 ]
        | [] -> []
      in
      List.for_all
        (fun x -> window_eval w1 x =~ window_eval w2 x)
        (xs @ mids xs)

let shift_triples (dx, dy) segs =
  List.map (fun (x, y, s) -> (x +. dx, y +. dy, s)) segs

(* Does [p] satisfy p (t + period) = p t + increment on
   [rank, rank + period)?  (I.e., its segments on the following period
   are the shifted copy.) *)
let pattern_matches p ~rank ~period ~increment =
  let w1 = segs_window p ~lo:rank ~hi:(rank +. period) in
  let w2 = segs_window p ~lo:(rank +. period) ~hi:(rank +. (2. *. period)) in
  windows_equal (shift_triples (period, increment) w1) w2

(* Explicit finite prefix: exact on [0, horizon], continuing past it
   with the slope of the last unrolled pattern segment (callers never
   read past their horizon). *)
let unroll f ~horizon =
  if f.affine_tail then f.base
  else begin
    let head = if f.rank > 0. then segs_window f.base ~lo:0. ~hi:f.rank else [] in
    let pat = segs_window f.base ~lo:f.rank ~hi:(f.rank +. f.period) in
    let reps =
      2 + Stdlib.max 0 (int_of_float (Float.ceil ((horizon -. f.rank) /. f.period)))
    in
    let body =
      List.concat
        (List.init reps (fun k ->
             let k = float_of_int k in
             shift_triples (k *. f.period, k *. f.increment) pat))
    in
    Pwl.make (head @ body)
  end

(* ------------------------------------------------------------------ *)
(* Construction and minimization                                       *)
(* ------------------------------------------------------------------ *)

(* Largest number of whole sub-periods a period is tested against when
   minimizing, and the bound on the small-integer search for a common
   multiple of two periods.  Purely a cost cap: failing to minimize or
   to find a common multiple never makes a result wrong, only larger
   (or, for incommensurable periods, unsupported). *)
let max_period_factor = 64

(* Affine-tail collapse: when the pattern is a single affine piece
   whose increment equals slope * period, the periodic law says nothing
   the final segment doesn't. *)
let try_affine ~rank ~period ~increment base =
  let open Float_ops in
  match segs_window base ~lo:rank ~hi:(rank +. period) with
  | [ (_, _, s) ] when increment =~ s *. period ->
      (* Rebuild so the curve carries no segments beyond the pattern
         start (they would silently change the function: beyond the
         window the tail is the pattern's own slope). *)
      let head = if rank > 0. then segs_window base ~lo:0. ~hi:rank else [] in
      let at =
        match segs_window base ~lo:rank ~hi:(rank +. period) with
        | seg :: _ -> seg
        | [] -> assert false
      in
      Some (of_pwl (Pwl.make (head @ [ at ])))
  | _ -> None

let normalize f =
  if f.affine_tail then f
  else begin
    match try_affine ~rank:f.rank ~period:f.period ~increment:f.increment f.base
    with
    | Some g -> g
    | None ->
        (* Rank reduction in whole periods: pull the law left while the
           preceding window is the shifted pattern. *)
        let rank = ref f.rank in
        let continue_ = ref true in
        while !continue_ && !rank >= f.period do
          let prev = segs_window f.base ~lo:(!rank -. f.period) ~hi:!rank in
          let pat = segs_window f.base ~lo:!rank ~hi:(!rank +. f.period) in
          if windows_equal (shift_triples (f.period, f.increment) prev) pat
          then rank := !rank -. f.period
          else continue_ := false
        done;
        let rank = !rank in
        (* Period division: the smallest sub-period d/k whose k-fold
           repetition is the pattern. *)
        let divides k =
          let d' = f.period /. float_of_int k in
          let c' = f.increment /. float_of_int k in
          let w0 = segs_window f.base ~lo:rank ~hi:(rank +. d') in
          let rec all j =
            j >= k
            ||
            let lo = rank +. (float_of_int j *. d') in
            let wj = segs_window f.base ~lo ~hi:(lo +. d') in
            windows_equal
              (shift_triples (float_of_int j *. d', float_of_int j *. c') w0)
              wj
            && all (j + 1)
          in
          all 1
        in
        let rec find_k k = if k < 2 then 1 else if divides k then k else find_k (k - 1) in
        let k = find_k max_period_factor in
        let period = f.period /. float_of_int k in
        let increment = f.increment /. float_of_int k in
        (* Trim the base to the trusted window so segment_count reports
           the representation's real size. *)
        let head = if rank > 0. then segs_window f.base ~lo:0. ~hi:rank else [] in
        let pat = segs_window f.base ~lo:rank ~hi:(rank +. period) in
        let base = Pwl.make (head @ pat) in
        (match try_affine ~rank ~period ~increment base with
        | Some g -> g
        | None -> { base; rank; period; increment; affine_tail = false })
  end

let make ~rank ~period ~increment segs =
  if not (Float.is_finite rank) || rank < 0. then
    invalid_arg "Upp.make: rank must be finite and >= 0";
  if not (Float.is_finite period) || period <= 0. then
    invalid_arg "Upp.make: period must be finite and > 0";
  if not (Float.is_finite increment) then
    invalid_arg "Upp.make: increment must be finite";
  let base = Pwl.make segs in
  if Pwl.last_breakpoint base >= rank +. period then
    invalid_arg "Upp.make: segments extend beyond rank + period";
  normalize { base; rank; period; increment; affine_tail = false }

(* The canonical horizon-unbounded stress curve: a pure staircase that
   jumps by [step] at 0, [interval], [2 interval], ...  (An explicit
   Pwl of the same function needs one segment per step up to its
   horizon; this is one segment, ever.) *)
let staircase ~step ~interval =
  if not (Float.is_finite step) || step <= 0. then
    invalid_arg "Upp.staircase: step must be finite and > 0";
  if not (Float.is_finite interval) || interval <= 0. then
    invalid_arg "Upp.staircase: interval must be finite and > 0";
  make ~rank:0. ~period:interval ~increment:step [ (0., step, 0.) ]

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

(* Blessed comparison/hash, mirroring {!Pwl.compare}/{!Pwl.hash}: the
   parameter floats compare on bit patterns, the base on its content
   hash — never on uids, so identity survives intern resets. *)
let compare f g =
  if f == g then 0
  else
    let bits = Int64.bits_of_float in
    let c = Bool.compare f.affine_tail g.affine_tail in
    if c <> 0 then c
    else
      let c = Int64.compare (bits f.rank) (bits g.rank) in
      if c <> 0 then c
      else
        let c = Int64.compare (bits f.period) (bits g.period) in
        if c <> 0 then c
        else
          let c = Int64.compare (bits f.increment) (bits g.increment) in
          if c <> 0 then c else Pwl.compare f.base g.base

let hash f =
  let mix h v = (h * 31) + Int64.to_int (Int64.bits_of_float v) in
  let h = Pwl.hash f.base in
  let h = mix h f.rank in
  let h = mix h f.period in
  let h = mix h f.increment in
  ((h * 31) + Bool.to_int f.affine_tail) land max_int

(* ------------------------------------------------------------------ *)
(* Periodic-law algebra for binary operations                          *)
(* ------------------------------------------------------------------ *)

(* Smallest common multiple of the two periods found by small-integer
   search (k1 * df = k2 * dg, k1 <= max_period_factor); [None] when the
   periods are incommensurable within the cap.  Affine operands impose
   no constraint. *)
let common_period f g =
  if f.affine_tail then Some g.period
  else if g.affine_tail then Some f.period
  else begin
    let open Float_ops in
    let rec search k1 =
      if k1 > max_period_factor then None
      else
        let m = float_of_int k1 *. f.period in
        let k2 = Float.round (m /. g.period) in
        if k2 >= 1. && m =~ k2 *. g.period then Some m else search (k1 + 1)
    in
    search 1
  end

let incommensurable op =
  invalid_arg
    (Printf.sprintf
       "Upp.%s: operand periods are incommensurable (no common multiple \
        within factor %d)"
       op max_period_factor)

(* Periodic law of the result of an order-preserving binary operation:
   the operand with the strictly smaller long-run rate eventually
   dictates the tail; with equal rates the laws compose over a common
   multiple of the periods. *)
let result_law op f g =
  let open Float_ops in
  let rf = rate f and rg = rate g in
  if rf =~ rg then
    match common_period f g with
    | Some d -> (d, rf *. d)
    | None -> incommensurable op
  else
    let slow = if rf < rg then f else g in
    if slow.affine_tail then
      let other = if rf < rg then g else f in
      let d = if other.affine_tail then 1. else other.period in
      (d, rate slow *. d)
    else (slow.period, slow.increment)

(* Law for a sum: both laws must hold simultaneously, so the periods
   must be commensurable and the increments add over the common
   multiple. *)
let sum_law op f g =
  match common_period f g with
  | Some d -> (d, (rate f +. rate g) *. d)
  | None -> incommensurable op

(* Verification loop shared by every periodic-path operation: starting
   from the structural rank estimate, compute the exact window curve
   and accept the first rank at which the last unrolled period obeys
   the candidate law.  [window ~horizon] must be exact on
   [0, horizon]. *)
let max_rank_tries = 32

let periodize ~op ~d ~c ~rank0 window =
  let rec try_ i =
    if i >= max_rank_tries then
      invalid_arg
        (Printf.sprintf
           "Upp.%s: could not verify the periodic law within %d periods \
            past the structural rank"
           op max_rank_tries)
    else
      let rank = rank0 +. (float_of_int i *. d) in
      let horizon = rank +. (2. *. d) in
      let w = window ~horizon in
      if pattern_matches w ~rank ~period:d ~increment:c then
        let head = if rank > 0. then segs_window w ~lo:0. ~hi:rank else [] in
        let pat = segs_window w ~lo:rank ~hi:(rank +. d) in
        normalize
          { base = Pwl.make (head @ pat);
            rank;
            period = d;
            increment = c;
            affine_tail = false }
      else try_ (i + 1)
  in
  try_ 0

(* ------------------------------------------------------------------ *)
(* Pointwise operations                                                *)
(* ------------------------------------------------------------------ *)

(* Slack past every horizon so the reconstruction probes of
   {!Pwl.of_sampler} (which reach two units past the last candidate)
   stay inside the exactly-unrolled region. *)
let horizon_slack = 4.

let add f g =
  if f.affine_tail && g.affine_tail then of_pwl (Pwl.add f.base g.base)
  else
    let d, c = sum_law "add" f g in
    let rank0 = Float.max f.rank g.rank in
    periodize ~op:"add" ~d ~c ~rank0 (fun ~horizon ->
        let h = horizon +. horizon_slack +. d in
        Pwl.add (unroll f ~horizon:h) (unroll g ~horizon:h))

let min_pw f g =
  if f.affine_tail && g.affine_tail then of_pwl (Pwl.min_pw f.base g.base)
  else
    let d, c = result_law "min_pw" f g in
    let rank0 = Float.max f.rank g.rank in
    periodize ~op:"min_pw" ~d ~c ~rank0 (fun ~horizon ->
        let h = horizon +. horizon_slack +. d in
        Pwl.min_pw (unroll f ~horizon:h) (unroll g ~horizon:h))

(* ------------------------------------------------------------------ *)
(* Windowed exact convolution                                          *)
(* ------------------------------------------------------------------ *)

(* Exact envelope-convention convolution of two finite prefixes on
   [0, horizon]:

     (fw (x) gw) t = min (fw t, gw t, inf_{0 <= s <= t} fw s + gw (t-s))

   (the [fw t] / [gw t] branches are the s = 0- / s = t+ terms of the
   arrival-curve convention, matching both [Minplus.conv] on concave
   operands and [Minplus.conv_with_rate]'s empty-system start).

   The infimum is computed by the UPP decomposition: the s-axis splits
   at [rank_f] into f's transient and periodic parts and the (t-s)-axis
   at [rank_g] likewise, giving four independent sub-convolutions
   (transient (x) transient, transient (x) periodic, periodic (x)
   transient, periodic (x) periodic) evaluated in parallel with
   {!Par.map} and recombined by pointwise minimum.  Within a
   sub-rectangle both operands are affine between breakpoints, so the
   infimum over s is attained at a breakpoint of fw, at [t] minus a
   breakpoint of gw, or at a rectangle edge — including left limits at
   jumps.  Candidate result breakpoints are the pairwise breakpoint
   sums (Minkowski set); branch crossings that fall between candidates
   are recovered by the refinement loop in {!refine_sampled}. *)

let part_inf fw gw (slo, shi, ulo, uhi) t =
  let lo = Float.max slo (if uhi = infinity then 0. else t -. uhi) in
  let hi = Float.min (Float.min shi t) (t -. ulo) in
  if lo > hi then infinity
  else begin
    let cands = ref [ lo; hi ] in
    List.iter
      (fun b -> if b > lo && b < hi then cands := b :: !cands)
      (Pwl.breakpoints fw);
    List.iter
      (fun b ->
        let s = t -. b in
        if s > lo && s < hi then cands := s :: !cands)
      (Pwl.breakpoints gw);
    List.fold_left
      (fun best s ->
        let u = t -. s in
        let v =
          Float.min
            (Pwl.eval fw s +. Pwl.eval gw u)
            (Float.min
               (Pwl.eval_left fw s +. Pwl.eval gw u)
               (Pwl.eval fw s +. Pwl.eval_left gw u))
        in
        Float.min best v)
      infinity !cands
  end

(* Rebuild an exact curve from a sampler, then verify each reconstructed
   segment against the sampler and insert the branch crossings it
   missed: crossings of the sub-convolution minimum (or the
   deconvolution maximum) need not sit on the Minkowski candidate set.
   Between adjacent candidates the true curve is a min (resp. max) of
   affine branches, hence concave (resp. convex) there, while
   [of_sampler] extends the branch that is active just right of the
   left candidate; any deviation therefore persists all the way to the
   right candidate, so probing the midpoint and a point just left of
   the right end detects every mismatching segment.  On a mismatch the
   true curve is locally affine, so intersecting its local line with
   the reconstructed segment gives the exact crossing, and one round
   usually suffices. *)
let max_refine_rounds = 12

let refine_sampled ~candidates ~eval =
  let open Float_ops in
  let rec go cands round =
    let h = Pwl.of_sampler ~candidates:cands ~eval () in
    if round >= max_refine_rounds then h
    else begin
      let extra = ref [] in
      let check (a, ya, sa) b m =
        let ev = eval m in
        if not (Pwl.eval h m =~ ev) then begin
          let eps = (b -. a) /. 1048576. in
          let slope = (eval (m +. eps) -. ev) /. eps in
          let t =
            if slope =~ sa then m
            else ((ev -. (slope *. m)) -. (ya -. (sa *. a))) /. (sa -. slope)
          in
          let t = if t > a && t < b && not (t =~ a || t =~ b) then t else m in
          extra := t :: !extra
        end
      in
      let rec walk = function
        | ((a, _, _) as seg) :: ((b, _, _) :: _ as rest) ->
            let gap = b -. a in
            check seg b (a +. (0.5 *. gap));
            check seg b (b -. (gap /. 1024.));
            walk rest
        | _ -> ()
      in
      walk (Pwl.segments h);
      if !extra = [] then h else go (!extra @ cands) (round + 1)
    end
  in
  go candidates 0

let window_conv ~rank_f ~rank_g fw gw ~horizon =
  let bf = List.filter (fun x -> x <= horizon) (Pwl.breakpoints fw) in
  let bg = List.filter (fun x -> x <= horizon) (Pwl.breakpoints gw) in
  let candidates = ref [ 0.; horizon ] in
  List.iter
    (fun x ->
      candidates := x :: !candidates;
      List.iter
        (fun y ->
          let s = x +. y in
          if s <= horizon then candidates := s :: !candidates)
        bg)
    bf;
  List.iter (fun y -> candidates := y :: !candidates) bg;
  let parts =
    [ (0., rank_f, 0., rank_g);
      (0., rank_f, rank_g, infinity);
      (rank_f, infinity, 0., rank_g);
      (rank_f, infinity, rank_g, infinity) ]
  in
  (* Degenerate rectangles (an operand with no transient) contribute
     [infinity] everywhere and drop out of the minimum. *)
  let parts = List.filter (fun (slo, shi, _, _) -> slo < shi || shi = infinity) parts in
  let eval t =
    let sub = Par.map (fun p -> part_inf fw gw p t) parts in
    List.fold_left Float.min
      (Float.min (Pwl.eval fw t) (Pwl.eval gw t))
      sub
  in
  refine_sampled ~candidates:!candidates ~eval

(* Namespace for the shared [Minplus] result cache: upp window results
   are keyed apart from the pwl kernel's (namespace 0) and from other
   horizons — the unrolled-operand uids alone must never be allowed to
   collide with a pwl kernel entry (see the cache-keying regression
   test). *)
let cache_ns ~kind ~horizon =
  let tag =
    ((Hashtbl.hash kind * 31) + Int64.to_int (Int64.bits_of_float horizon))
    land max_int
  in
  if tag = 0 then 1 else tag

let conv f g =
  if f.affine_tail && g.affine_tail then of_pwl (Minplus.conv f.base g.base)
  else
    let d, c = result_law "conv" f g in
    let rank0 = f.rank +. g.rank +. d in
    periodize ~op:"conv" ~d ~c ~rank0 (fun ~horizon ->
        let h = horizon +. horizon_slack +. d in
        let fw = unroll f ~horizon:h and gw = unroll g ~horizon:h in
        Minplus.cached_op `Conv
          ~ns:(cache_ns ~kind:"upp.conv" ~horizon)
          fw gw
          (fun () -> window_conv ~rank_f:f.rank ~rank_g:g.rank fw gw ~horizon))

let conv_with_rate ~rate:r f =
  if r <= 0. then invalid_arg "Upp.conv_with_rate: rate <= 0";
  if f.affine_tail then of_pwl (Minplus.conv_with_rate ~rate:r f.base)
  else conv f (of_pwl (Pwl.affine ~y0:0. ~slope:r))

(* ------------------------------------------------------------------ *)
(* Windowed exact deconvolution                                        *)
(* ------------------------------------------------------------------ *)

(* (f (/) g) t = sup_{u >= 0} f (t + u) - g u.  Beyond both transients
   the difference changes by (rate f - rate g) * D over a common period
   D: strictly decreasing when rate f < rate g, exactly periodic when
   the rates tie — either way the supremum over u is attained within
   [0, max rank + D], so a finite window of exact unrolled values
   suffices.  The result inherits f's law: shifting t by f's period
   adds f's increment to every branch of the supremum once t is past
   the verified rank. *)
let deconv f g =
  if f.affine_tail && g.affine_tail then of_pwl (Minplus.deconv f.base g.base)
  else begin
    let open Float_ops in
    if rate g <~ rate f then
      invalid_arg "Upp.deconv: infinite (f grows faster than g)";
    let du =
      match common_period f g with
      | Some d -> d
      | None -> incommensurable "deconv"
    in
    let u_max = Float.max f.rank g.rank +. du in
    let d, c =
      if f.affine_tail then (1., rate f) else (f.period, f.increment)
    in
    let rank0 = f.rank +. du in
    periodize ~op:"deconv" ~d ~c ~rank0 (fun ~horizon ->
        let fw = unroll f ~horizon:(horizon +. u_max +. horizon_slack +. d) in
        let gw = unroll g ~horizon:(u_max +. horizon_slack +. d) in
        Minplus.cached_op `Deconv
          ~ns:(cache_ns ~kind:"upp.deconv" ~horizon)
          fw gw
          (fun () ->
            let bg = List.filter (fun x -> x <= u_max) (Pwl.breakpoints gw) in
            let bf = Pwl.breakpoints fw in
            let eval t =
              let cands = ref [ 0.; u_max ] in
              List.iter
                (fun b -> if b > 0. && b < u_max then cands := b :: !cands)
                bg;
              List.iter
                (fun b ->
                  let u = b -. t in
                  if u > 0. && u < u_max then cands := u :: !cands)
                bf;
              List.fold_left
                (fun best u ->
                  let v =
                    Float.max
                      (Pwl.eval fw (t +. u) -. Pwl.eval gw u)
                      (Pwl.eval_left fw (t +. u) -. Pwl.eval_left gw u)
                  in
                  Float.max best v)
                neg_infinity !cands
            in
            let candidates = ref [ 0.; horizon ] in
            List.iter
              (fun x ->
                if x <= horizon then candidates := x :: !candidates;
                List.iter
                  (fun y ->
                    let t = x -. y in
                    if t > 0. && t <= horizon then candidates := t :: !candidates)
                  bg)
              bf;
            refine_sampled ~candidates:!candidates ~eval))
  end
