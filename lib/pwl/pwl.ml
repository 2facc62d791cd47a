
type seg = { x : float; y : float; slope : float }

type t = { segs : seg array } [@@unboxed]
(* A value is its normalized segment array and nothing else: [of_segs],
   the constructor behind [make] and every operation, validates and
   normalizes, and never hashes or locks.  Content identity is paid
   for only where it is read: [uid] interns the segments on demand. *)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let check_finite v name =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Pwl.make: non-finite %s" name)

(* Merge adjacent collinear segments, in place on a fresh array;
   assumes x strictly increasing.  The slope test is ABSOLUTE: a
   tolerance relative to the slope magnitude would let near-vertical
   segments merge while their extrapolated values drift arbitrarily
   over the merged span. *)
let normalize segs =
  let open Float_ops in
  let w = ref 0 in
  for i = 1 to Array.length segs - 1 do
    let prev = segs.(!w) and seg = segs.(i) in
    let dx = seg.x -. prev.x in
    let continuous = seg.y =~ prev.y +. (prev.slope *. dx) in
    if not (continuous && Float.abs (seg.slope -. prev.slope) <= 1e-9) then begin
      Stdlib.incr w;
      segs.(!w) <- seg
    end
  done;
  if !w + 1 = Array.length segs then segs else Array.sub segs 0 (!w + 1)

(* Every pwl value goes through [of_segs], the validating constructor
   that [make] and the pointwise merges share, so a counter there
   measures the total construction volume of an analysis and the breakpoint
   distribution measures how large intermediate functions get
   ([pwl.breakpoints]'s max is the peak complexity).  Recording is
   branch-guarded by Obs: disabled runs pay one load and branch.

   [pwl.segments.total] (cumulative segments constructed) and
   [pwl.segments.max] (largest single curve ever built) make the curve
   workload and any representation blowup directly visible in
   [netcalc profile] and bench [--obs]. *)
let c_make = Metrics.counter "pwl.make.calls"
let d_breakpoints = Metrics.dist "pwl.breakpoints"
let c_segs_total = Metrics.counter "pwl.segments.total"
let p_segs_max = Metrics.peak "pwl.segments.max"

(* ------------------------------------------------------------------ *)
(* Content identity and on-demand uids                                 *)
(* ------------------------------------------------------------------ *)

(* Content identity is decided on the float bit patterns, so [0.] and
   [-0.] (and any two NaN payloads) stay distinct: two values with the
   same content are interchangeable byte for byte. *)

let seg_equal_bits a b =
  Int64.bits_of_float a.x = Int64.bits_of_float b.x
  && Int64.bits_of_float a.y = Int64.bits_of_float b.y
  && Int64.bits_of_float a.slope = Int64.bits_of_float b.slope

let segs_equal_bits a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (seg_equal_bits a.(i) b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* Bit-identical content; physical equality answers first. *)
let same f g = f == g || segs_equal_bits f.segs g.segs

let hash_segs segs =
  let h = ref 0x9e3779b9 in
  let mix_float v = h := (!h * 31) + Int64.to_int (Int64.bits_of_float v) in
  Array.iter
    (fun s ->
      mix_float s.x;
      mix_float s.y;
      mix_float s.slope)
    segs;
  !h land max_int

(* The intern table maps content to its uid, and only [uid] touches it.
   Uids come from a counter that never goes back, so a uid names one
   content for the life of the process.  The table is bounded like the
   [Minplus] cache: past the cap it is reset wholesale, after which
   equal content gets a fresh uid — uid-keyed caches then miss and
   recompute the same values, so correctness never depends on the cap.
   One lock guards lookup+insert: netcalc.par worker domains read uids
   concurrently. *)
let intern_lock = Obs_sync.create ()
let intern_cap = 16384
let intern_tbl : (int, (seg array * int) list) Hashtbl.t = Hashtbl.create 1024
let intern_count = ref 0
let next_uid = ref 0

(* Hit/miss counters are recorded unconditionally, mirroring the
   [Minplus] cache counters: [intern_stats] must be accurate even when
   profiling is enabled only for the final report. *)
let c_intern_hit = Metrics.counter "pwl.intern.hits"
let c_intern_miss = Metrics.counter "pwl.intern.misses"
let d_intern_size = Metrics.dist "pwl.intern.size"

type intern_stats = { hits : int; misses : int; entries : int }

let intern_stats () =
  { hits = Metrics.value c_intern_hit;
    misses = Metrics.value c_intern_miss;
    entries = Obs_sync.with_lock intern_lock (fun () -> !intern_count) }

let intern_clear () =
  Obs_sync.with_lock intern_lock (fun () ->
      Hashtbl.reset intern_tbl;
      intern_count := 0)

let uid f =
  let h = hash_segs f.segs in
  Obs_sync.with_lock intern_lock (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt intern_tbl h) in
      match List.find_opt (fun (segs, _) -> segs_equal_bits segs f.segs) bucket with
      | Some (_, id) ->
          Metrics.incr c_intern_hit;
          id
      | None ->
          Metrics.incr c_intern_miss;
          let bucket =
            if !intern_count < intern_cap then bucket
            else begin
              Hashtbl.reset intern_tbl;
              intern_count := 0;
              []
            end
          in
          let id = !next_uid in
          Stdlib.incr next_uid;
          Hashtbl.replace intern_tbl h ((f.segs, id) :: bucket);
          Stdlib.incr intern_count;
          if Prof.enabled () then
            Metrics.observe d_intern_size (float_of_int !intern_count);
          id)

(* Blessed comparison API (the lint rule pwl-poly-eq points here).
   Polymorphic [=] on [t] would compare floats by value, so [0.] and
   [-0.] would match, and polymorphic hash folds only a prefix of the
   segments.  [compare] is a total order on the segments' bit
   patterns: arbitrary but fixed.  Note the asymmetry with {!equal},
   which is tolerant and pointwise: [compare f g = 0] is bit-exact
   structural identity, strictly finer than [equal]. *)
let compare f g =
  if f == g then 0
  else
    let bits = Int64.bits_of_float in
    let cmp_seg a b =
      match Int64.compare (bits a.x) (bits b.x) with
      | 0 -> (
          match Int64.compare (bits a.y) (bits b.y) with
          | 0 -> Int64.compare (bits a.slope) (bits b.slope)
          | c -> c)
      | c -> c
    in
    let na = Array.length f.segs and nb = Array.length g.segs in
    let rec go i =
      if i >= na then if i >= nb then 0 else -1
      else if i >= nb then 1
      else match cmp_seg f.segs.(i) g.segs.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0

(* The one validating constructor.  [make] and the pointwise merges
   hand it a fresh segment array: every result is checked and
   normalized (in place) here, and nowhere else. *)
let of_segs segs =
  if Array.length segs = 0 then invalid_arg "Pwl.make: empty segment list";
  Prof.count c_make;
  Array.iter
    (fun s ->
      check_finite s.x "x";
      check_finite s.y "y";
      check_finite s.slope "slope")
    segs;
  if not (Float_ops.eq_exact segs.(0).x 0.) then
    invalid_arg "Pwl.make: first x must be 0.";
  (* [-0.] passes the check above; store [+0.], so every value starts
     at the same bits whichever operand a merge took its first point
     from. *)
  if Float.sign_bit segs.(0).x then segs.(0) <- { (segs.(0)) with x = 0. };
  for i = 1 to Array.length segs - 1 do
    if segs.(i).x <= segs.(i - 1).x then
      invalid_arg "Pwl.make: x not strictly increasing"
  done;
  let segs = normalize segs in
  if Prof.enabled () then begin
    Metrics.observe d_breakpoints (float_of_int (Array.length segs));
    Metrics.add c_segs_total (Array.length segs);
    Metrics.observe_peak p_segs_max (Array.length segs)
  end;
  { segs }

let make triples =
  of_segs (Array.of_list (List.map (fun (x, y, slope) -> { x; y; slope }) triples))

let zero = make [ (0., 0., 0.) ]
let constant c = make [ (0., c, 0.) ]
let affine ~y0 ~slope = make [ (0., y0, slope) ]

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

(* Index of the segment containing t (last i with segs.(i).x <= t). *)
let seg_index f t =
  if t <= 0. then 0
  else begin
    let lo = ref 0 and hi = ref (Array.length f.segs) in
    (* invariant: segs.(lo).x <= t and (hi = n or segs.(hi).x > t) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if f.segs.(mid).x <= t then lo := mid else hi := mid
    done;
    !lo
  end

let eval f t =
  let t = Float.max t 0. in
  let s = f.segs.(seg_index f t) in
  s.y +. (s.slope *. (t -. s.x))

let eval_left f t =
  if t <= 0. then eval f 0.
  else
    let i = seg_index f t in
    let s = f.segs.(i) in
    if s.x = t && i > 0 then
      let p = f.segs.(i - 1) in
      p.y +. (p.slope *. (t -. p.x))
    else s.y +. (s.slope *. (t -. s.x))

(* Batch evaluation over sorted abscissae with a monotone segment
   cursor: one pass over the points and one over the segments, instead
   of a binary search (and its per-call float boxing) per point.  The
   deconvolution inner loop and conv_with_rate evaluate thousands of
   sorted points per call, which is where this matters. *)

let check_sorted_step name prev t =
  if t < prev then
    invalid_arg (name ^ ": abscissae must be sorted nondecreasing")

let eval_seq f ts =
  let n = Array.length ts in
  let out = Array.make n 0. in
  let segs = f.segs in
  let nsegs = Array.length segs in
  let j = ref 0 in
  let prev = ref neg_infinity in
  for i = 0 to n - 1 do
    let t = Float.max ts.(i) 0. in
    check_sorted_step "Pwl.eval_seq" !prev t;
    prev := t;
    while !j + 1 < nsegs && segs.(!j + 1).x <= t do
      incr j
    done;
    let s = segs.(!j) in
    out.(i) <- s.y +. (s.slope *. (t -. s.x))
  done;
  out

let eval_left_seq f ts =
  let n = Array.length ts in
  let out = Array.make n 0. in
  let segs = f.segs in
  let nsegs = Array.length segs in
  let j = ref 0 in
  let prev = ref neg_infinity in
  for i = 0 to n - 1 do
    let t = Float.max ts.(i) 0. in
    check_sorted_step "Pwl.eval_left_seq" !prev t;
    prev := t;
    while !j + 1 < nsegs && segs.(!j + 1).x <= t do
      incr j
    done;
    let s = segs.(!j) in
    out.(i) <-
      (if s.x = t && !j > 0 then
         let p = segs.(!j - 1) in
         p.y +. (p.slope *. (t -. p.x))
       else s.y +. (s.slope *. (t -. s.x)))
  done;
  out

let segments f = Array.to_list (Array.map (fun s -> (s.x, s.y, s.slope)) f.segs)
let breakpoints f = Array.to_list (Array.map (fun s -> s.x) f.segs)
let final_slope f = f.segs.(Array.length f.segs - 1).slope
let value_at_zero f = f.segs.(0).y

let last_breakpoint f = f.segs.(Array.length f.segs - 1).x

let is_nondecreasing f =
  let open Float_ops in
  (* Judged on value decreases, not raw slopes: a reconstruction-noise
     slope of -1e-8 across a near-degenerate segment drops the value by
     an amount far below tolerance and must not count. *)
  let ok = ref true in
  let n = Array.length f.segs in
  for i = 0 to n - 1 do
    let s = f.segs.(i) in
    if i + 1 < n then begin
      let next = f.segs.(i + 1) in
      let v_end = s.y +. (s.slope *. (next.x -. s.x)) in
      if v_end <~ s.y then ok := false;
      (* downward jump at the next breakpoint *)
      if next.y <~ v_end then ok := false
    end
    else if s.slope <~ 0. then (* unbounded eventual decrease *)
      ok := false
  done;
  !ok

let has_interior_jump f =
  let open Float_ops in
  let n = Array.length f.segs in
  let jump = ref false in
  for i = 1 to n - 1 do
    let s = f.segs.(i) and p = f.segs.(i - 1) in
    let left = p.y +. (p.slope *. (s.x -. p.x)) in
    if not (s.y =~ left) then jump := true
  done;
  !jump

let shape f =
  let open Float_ops in
  let n = Array.length f.segs in
  if n = 1 then `Affine
  else if has_interior_jump f then `General
  else begin
    let nonincreasing = ref true and nondecreasing = ref true in
    for i = 1 to n - 1 do
      let s = f.segs.(i).slope and p = f.segs.(i - 1).slope in
      if s <~ p then nondecreasing := false;
      if p <~ s then nonincreasing := false
    done;
    match (!nonincreasing, !nondecreasing) with
    | true, true -> `Affine
    | true, false -> `Concave
    | false, true -> if value_at_zero f =~ 0. || value_at_zero f > 0. then `Convex else `General
    | false, false -> `General
  end

let pp ppf f =
  let pp_seg ppf s = Format.fprintf ppf "(%g, %g, %g)" s.x s.y s.slope in
  Format.fprintf ppf "@[<hov 2>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_seg)
    (Array.to_list f.segs)

(* ------------------------------------------------------------------ *)
(* Exact reconstruction from a sampler                                 *)
(* ------------------------------------------------------------------ *)

(* Drop candidates closer than ~1e-9 (relative): the midpoint probes of
   [of_sampler] divide by the interval width, so near-coincident
   candidates (typically two float routes to the same geometric
   crossing) would amplify evaluation noise into garbage slopes.
   Merging them instead loses at most slope * 1e-9 of accuracy.
   In place on a sorted array; returns the deduped length. *)
let dedup_sorted_into arr =
  let near a b = b -. a < 1e-9 *. Float.max 1. (Float.abs a) in
  let n = Array.length arr in
  if n = 0 then 0
  else begin
    let w = ref 0 in
    for i = 1 to n - 1 do
      if not (near arr.(!w) arr.(i)) then begin
        Stdlib.incr w;
        arr.(!w) <- arr.(i)
      end
    done;
    !w + 1
  end

let of_sampler ~candidates ~eval:sample =
  (* Sanitize into a sorted deduped array.  Array.sort with
     Float.compare beats the former List.sort_uniq with polymorphic
     compare by a wide margin on the O(|f|*|g|) candidate sets the
     deconvolution feeds through here. *)
  let keep x = Float.is_finite x (* drops nan and both infinities *) in
  let raw = List.filter keep candidates in
  let arr = Array.make (1 + List.length raw) 0. in
  List.iteri (fun i x -> arr.(i + 1) <- Float.max 0. x) raw;
  Array.sort Float.compare arr;
  let n = dedup_sorted_into arr in
  (* Probe points x_i < m1_i < m2_i < x_{i+1}, interleaved. *)
  let probes = Array.make (3 * n) 0. in
  for i = 0 to n - 1 do
    let x = arr.(i) in
    let m1, m2 =
      if i + 1 < n then
        let w = arr.(i + 1) -. x in
        (x +. (w /. 3.), x +. (2. *. w /. 3.))
      else
        (* past 2^40 the step grows with x, so that x + step and
           x + 2 step stay distinct floats *)
        let step = Float.max 1. (Float.ldexp x (-40)) in
        (x +. step, x +. (2. *. step))
    in
    probes.(3 * i) <- x;
    probes.((3 * i) + 1) <- m1;
    probes.((3 * i) + 2) <- m2
  done;
  let values = Array.map sample probes in
  make
    (List.init n (fun i ->
         let x = probes.(3 * i) and y = values.(3 * i) in
         let m1 = probes.((3 * i) + 1) and m2 = probes.((3 * i) + 2) in
         let slope = (values.((3 * i) + 2) -. values.((3 * i) + 1)) /. (m2 -. m1) in
         (x, y, slope)))

(* ------------------------------------------------------------------ *)
(* Pointwise algebra                                                   *)
(* ------------------------------------------------------------------ *)

(* The value of segment [s] at [t], as [eval] reads it once it has found
   the segment.  Every cursor scan below evaluates through this, so each
   point gets the float operations [eval] would give it. *)
let at s t = s.y +. (s.slope *. (t -. s.x)) [@@inline]

(* The left limit at [t] of the function whose segment [i] contains
   [t], as [eval_left] reads it. *)
let left_at segs i t =
  let s = segs.(i) in
  if t > 0. && i > 0 && Float_ops.eq_exact s.x t then at segs.(i - 1) t
  else at s t
[@@inline]

(* The breakpoint after segment [i]; [infinity] after the last.  A
   two-cursor scan steps each cursor whose next breakpoint is the
   nearer one, both on a tie. *)
let next_x segs i =
  if i + 1 < Array.length segs then segs.(i + 1).x else infinity
[@@inline]

(* Two-cursor merge of two segment arrays on the union of their
   breakpoints: the sum, or with [~neg] the difference.  Each value and
   right slope is read off the operand segment containing the point,
   with the same float operations as [eval] and [slope_at], so [add] and
   [sub] are bit-identical to evaluating both operands there.  The
   output is neither normalized nor interned. *)
let merge_segs ~neg a b =
  let na = Array.length a and nb = Array.length b in
  (* both start at 0., so the union has at most na + nb - 1 points *)
  let out = Array.make (na + nb - 1) a.(0) in
  let rec go i j n =
    let sa = a.(i) and sb = b.(j) in
    let x = if sa.x >= sb.x then sa.x else sb.x in
    let ya = at sa x and yb = at sb x in
    out.(n) <-
      (if neg then { x; y = ya -. yb; slope = sa.slope -. sb.slope }
       else { x; y = ya +. yb; slope = sa.slope +. sb.slope });
    if i + 1 = na && j + 1 = nb then
      if n + 1 = Array.length out then out else Array.sub out 0 (n + 1)
    else
      let xa = next_x a i and xb = next_x b j in
      go (if xa <= xb then i + 1 else i) (if xb <= xa then j + 1 else j) (n + 1)
  in
  go 0 0 0

(* Where the lines of [sa] and [sb] cross strictly inside (x, next), x
   excluded by a 1e-12 relative margin; [infinity] when they do not.
   [h] and [sh] are the difference's right value and slope at x. *)
let crossing sa sb x next =
  let h = at sa x -. at sb x in
  let sh = sa.slope -. sb.slope in
  if Float_ops.eq_exact sh 0. then infinity
  else
    let t = x -. (h /. sh) in
    if t > x +. (1e-12 *. Float.max 1. (Float.abs x)) && t < next then t
    else infinity

(* Walk the union of [a]'s and [b]'s breakpoints with two cursors and
   call [visit x sa sb] at each merged point, then at the crossing of
   the two segments' lines inside the interval it starts, if any, so
   the points come in ascending order; [sa] and [sb] are the operand
   segments that contain [x]. *)
let iter_crossings a b visit =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    let sa = a.(i) and sb = b.(j) in
    let x = if sa.x >= sb.x then sa.x else sb.x in
    visit x sa sb;
    let xa = next_x a i and xb = next_x b j in
    let t = crossing sa sb x (if xa <= xb then xa else xb) in
    if t < infinity then visit t sa sb;
    if i + 1 < na || j + 1 < nb then
      go (if xa <= xb then i + 1 else i) (if xb <= xa then j + 1 else j)
  in
  go 0 0

(* Neutral-element fast paths, decided on content ([same]), so they
   fire for every curve bit-identical to [zero] however it was built.
   They are not only a shortcut: merging [f] with zero turns a [-0.]
   value of [f] into [+0.], and in [sum] a kept zero operand shifts
   the tree's pairing and so its rounding. *)
let is_zero f = same f zero

let add f g =
  if is_zero f then g
  else if is_zero g then f
  else of_segs (merge_segs ~neg:false f.segs g.segs)

(* Pairwise tree (order and cost in the .mli): the levels pass plain
   arrays, and only the root goes through [of_segs], so a hub of k
   curves is one construction, not k - 1 normalized ones. *)
let sum fs =
  match List.filter (fun f -> not (is_zero f)) fs with
  | [] -> zero
  | [ f ] -> f
  | fs ->
      let level = Array.of_list (List.map (fun f -> f.segs) fs) in
      let rec reduce n =
        if n = 1 then level.(0)
        else begin
          for k = 0 to (n / 2) - 1 do
            level.(k) <- merge_segs ~neg:false level.(2 * k) level.((2 * k) + 1)
          done;
          if n land 1 = 1 then level.(n / 2) <- level.(n - 1);
          reduce ((n + 1) / 2)
        end
      in
      of_segs (reduce (Array.length level))

let sub f g = if is_zero g then f else of_segs (merge_segs ~neg:true f.segs g.segs)

let scale k f =
  of_segs (Array.map (fun s -> { s with y = k *. s.y; slope = k *. s.slope }) f.segs)

(* Pointwise minimum ([~lower]) or maximum on the merged breakpoints
   plus each interval's crossing.  Within tolerance of a tie the slope
   is the smaller (larger) of the two; otherwise it is the picked
   operand's. *)
let extrema ~lower f g =
  let open Float_ops in
  let a = f.segs and b = g.segs in
  (* at most one crossing per merged interval *)
  let out = Array.make (2 * (Array.length a + Array.length b - 1)) a.(0) in
  let n = ref 0 in
  let pick u v = if lower then Float.min u v else Float.max u v in
  iter_crossings a b (fun x sa sb ->
      let ya = at sa x and yb = at sb x in
      let y = pick ya yb in
      let slope =
        if ya <~ yb then if eq_exact y ya then sa.slope else sb.slope
        else if yb <~ ya then if eq_exact y yb then sb.slope else sa.slope
        else pick sa.slope sb.slope
      in
      out.(!n) <- { x; y; slope };
      Stdlib.incr n);
  of_segs (if !n = Array.length out then out else Array.sub out 0 !n)

let min_pw f g = if same f g then f else extrema ~lower:true f g
let max_pw f g = if same f g then f else extrema ~lower:false f g
let nonneg f = max_pw f zero

let min_list = function
  | [] -> invalid_arg "Pwl.min_list: empty list"
  | f :: rest -> List.fold_left min_pw f rest

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let shift_left f d =
  if d < 0. then invalid_arg "Pwl.shift_left: negative shift";
  if Float_ops.eq_exact d 0. then f
  else
    (* Exact: drop the segments entirely left of d, split the one
       containing d, translate the rest. *)
    let segs = f.segs in
    let i = seg_index f d in
    let s = segs.(i) in
    let out = Array.make (Array.length segs - i) { x = 0.; y = at s d; slope = s.slope } in
    for k = 1 to Array.length out - 1 do
      let s = segs.(i + k) in
      out.(k) <- { s with x = s.x -. d }
    done;
    of_segs out

let shift_right f d =
  if d < 0. then invalid_arg "Pwl.shift_right: negative shift";
  if Float_ops.eq_exact d 0. then f
  else
    let segs = f.segs in
    let out = Array.make (Array.length segs + 1) { x = 0.; y = 0.; slope = 0. } in
    Array.iteri (fun k s -> out.(k + 1) <- { s with x = s.x +. d }) segs;
    of_segs out

let compose ~outer ~inner =
  if not (is_nondecreasing inner) then
    invalid_arg "Pwl.compose: inner must be nondecreasing";
  (* Exact segmentwise composition: every inner segment is mapped
     through outer, cutting at the outer breakpoints its value range
     crosses.  No sampling, so errors do not accumulate through
     chained compositions. *)
  let outer_levels = breakpoints outer in
  let slope_at v = outer.segs.(seg_index outer v).slope in
  let pieces =
    List.concat_map
      (fun ((x, y, s), next_x) ->
        if s <= 0. then [ (x, eval outer y, 0.) ]
        else begin
          let v_end =
            if Float.is_finite next_x then y +. (s *. (next_x -. x))
            else infinity
          in
          let cuts =
            List.filter (fun level -> level > y && level < v_end) outer_levels
          in
          (x, eval outer y, s *. slope_at y)
          :: List.map
               (fun level ->
                 (x +. ((level -. y) /. s), eval outer level, s *. slope_at level))
               cuts
        end)
      (let rec with_next = function
         | seg :: ((nx, _, _) :: _ as rest) -> (seg, nx) :: with_next rest
         | [ seg ] -> [ (seg, infinity) ]
         | [] -> []
       in
       with_next (segments inner))
  in
  (* Cut abscissae are strictly increasing by construction, but float
     rounding can land a cut on a segment boundary; merge such
     degenerates, keeping the later piece (right-continuity). *)
  let rec merge_close = function
    | (x1, _, _) :: ((x2, y2, s2) :: rest)
      when x2 <= x1 +. (1e-12 *. Float.max 1. (Float.abs x1)) ->
        merge_close ((x1, y2, s2) :: rest)
    | p :: rest -> p :: merge_close rest
    | [] -> []
  in
  make (merge_close pieces)

let pseudo_inverse f =
  if not (is_nondecreasing f) then
    invalid_arg "Pwl.pseudo_inverse: function must be nondecreasing";
  if final_slope f <= 0. then
    invalid_arg "Pwl.pseudo_inverse: function must be eventually increasing";
  (* Exact construction: rising segments of f become 1/s segments of
     the inverse, upward jumps of f become flats, flats of f become
     the (right-continuous) upward jumps of the upper pseudo-inverse
     implicitly — the next rising piece starts at the same ordinate
     with a larger abscissa, and the later piece wins below. *)
  let buf = ref [] in
  let push y x s = buf := (y, x, s) :: !buf in
  let y0 = value_at_zero f in
  if y0 > 0. then push 0. 0. 0.;
  let rec walk = function
    | (x, y, s) :: rest ->
        (match rest with
        | (nx, ny, _) :: _ ->
            let y_end = y +. (s *. (nx -. x)) in
            if s > 0. then push y x (1. /. s);
            if ny > y_end then push y_end nx 0.
        | [] -> push y x (1. /. s));
        walk rest
    | [] -> ()
  in
  walk (segments f);
  (* Clamp ordinates (arithmetic noise can push the first one a few
     ulps below zero), then merge exact/near ties keeping the later
     (larger-abscissa) piece: the upper pseudo-inverse is
     right-continuous and takes the supremum. *)
  let pieces = List.rev_map (fun (y, x, s) -> (Float.max 0. y, x, s)) !buf in
  (* Merge tied ordinates keeping the later (larger-abscissa) piece:
     the right-continuous representation takes the supremum there.
     (A right-continuous "lower" pseudo-inverse would be the same
     function — the lower/upper distinction lives entirely in the left
     limits, which sup_diff and eval_left already expose.) *)
  let rec merge_close = function
    | (y1, _, _) :: ((y2, x2, s2) :: rest)
      when y2 <= y1 +. (1e-12 *. Float.max 1. (Float.abs y1)) ->
        merge_close ((y1, x2, s2) :: rest)
    | p :: rest -> p :: merge_close rest
    | [] -> []
  in
  make (merge_close pieces)

let rec running_max_depth depth f =
  if is_nondecreasing f then f
  else begin
    (* Exact segmentwise construction (no sampling): walk the segments
       carrying the maximum seen so far; a segment below it becomes a
       flat at that level, a segment crossing it from below is split at
       the crossing.  The result is nondecreasing by construction. *)
    let buf = ref [] in
    let push x y s = buf := (x, y, s) :: !buf in
    let rec walk m = function
      | (x, y, s) :: rest ->
          let next_x =
            match rest with (nx, _, _) :: _ -> nx | [] -> infinity
          in
          let y_end =
            if Float.is_finite next_x then y +. (s *. (next_x -. x))
            else if s > 0. then infinity
            else y
          in
          let m' =
            if y >= m then begin
              (* starts at or above the running max *)
              push x y (Float.max s 0.);
              if s >= 0. then Float.max m y_end else Float.max m y
            end
            else if s > 0. && y_end > m then begin
              (* crosses the running max inside the segment; if the
                 crossing rounds onto the segment start, rise from [m]
                 right away — silently dropping the rising piece would
                 freeze the curve at [m] for the whole segment *)
              let t = x +. ((m -. y) /. s) in
              if t > x && t < next_x then begin
                push x m 0.;
                push t m s
              end
              else push x m s;
              y_end
            end
            else begin
              (* entirely below: flat at the running max *)
              push x m 0.;
              m
            end
          in
          walk m' rest
      | [] -> ()
    in
    walk neg_infinity (segments f);
    (* merge pieces landing on (near-)identical abscissae *)
    let rec merge_close = function
      | (x1, y1, _) :: ((x2, y2, s2) :: rest)
        when x2 <= x1 +. (1e-12 *. Float.max 1. (Float.abs x1)) ->
          merge_close ((x1, Float.max y1 y2, s2) :: rest)
      | p :: rest -> p :: merge_close rest
      | [] -> []
    in
    let rebuilt = make (merge_close (List.rev !buf)) in
    (* A sub-ulp join produced by [make]'s normalization can survive a
       single pass; iterating reaches a fixed point in one or two more
       (each pass strictly lifts any remaining dip onto its running
       maximum). *)
    if is_nondecreasing rebuilt || depth >= 4 then rebuilt
    else running_max_depth (depth + 1) rebuilt
  end

let running_max f = running_max_depth 0 f

let lower_convex_hull f =
  (* Lower hull of the breakpoint cloud (taking left limits into account
     at jumps), closed with the final slope as a direction at infinity. *)
  let points =
    List.concat_map
      (fun x -> [ (x, Float.min (eval f x) (eval_left f x)) ])
      (breakpoints f)
  in
  let slope (x1, y1) (x2, y2) = (y2 -. y1) /. (x2 -. x1) in
  let rec push hull p =
    match hull with
    | b :: a :: rest when slope a b >= slope a p -> push (a :: rest) p
    | _ -> p :: hull
  in
  let hull = List.rev (List.fold_left push [] points) in
  let s_inf = final_slope f in
  (* Drop trailing hull points whose incoming slope already exceeds the
     final slope: the infinite ray of slope [s_inf] attaches at the last
     point below it (convexity requires nondecreasing slopes). *)
  let rec trim = function
    | last :: prev :: rest when slope prev last >= s_inf ->
        trim (prev :: rest)
    | pts -> pts
  in
  let hull = List.rev (trim (List.rev hull)) in
  let rec to_segs = function
    | (x, y) :: ((x2, y2) :: _ as rest) ->
        (x, y, slope (x, y) (x2, y2)) :: to_segs rest
    | [ (x, y) ] -> [ (x, y, s_inf) ]
    | [] -> assert false
  in
  make (to_segs hull)

(* ------------------------------------------------------------------ *)
(* Suprema and crossings                                               *)
(* ------------------------------------------------------------------ *)

(* The left-limit difference is read at every merged breakpoint too, so
   the supremum covers both the right- and left-continuous versions. *)
let sup_diff f g =
  let open Float_ops in
  if final_slope g <~ final_slope f then infinity
  else
    let a = f.segs and b = g.segs in
    let na = Array.length a and nb = Array.length b in
    (* a loop on refs, so the running maximum stays an unboxed float *)
    let i = ref 0 and j = ref 0 and acc = ref neg_infinity in
    let more = ref true in
    while !more do
      let sa = a.(!i) and sb = b.(!j) in
      let x = if sa.x >= sb.x then sa.x else sb.x in
      let d = Float.max (at sa x -. at sb x) (left_at a !i x -. left_at b !j x) in
      acc := Float.max !acc d;
      if !i + 1 = na && !j + 1 = nb then more := false
      else begin
        let xa = next_x a !i and xb = next_x b !j in
        if xa <= xb then Stdlib.incr i;
        if xb <= xa then Stdlib.incr j
      end
    done;
    !acc

let sup_on f ~lo ~hi =
  if hi < lo then invalid_arg "Pwl.sup_on: hi < lo";
  let segs = f.segs in
  let n = Array.length segs in
  let point acc t = Float.max (Float.max acc (eval f t)) (eval_left f t) in
  (* The breakpoints from [k] on while [keep] holds, each read off its
     own segment and the one before it. *)
  let rec breakpoints_from k keep acc =
    if k = n || not (keep segs.(k).x) then acc
    else
      let t = segs.(k).x in
      breakpoints_from (k + 1) keep
        (Float.max (Float.max acc (at segs.(k) t)) (left_at segs k t))
  in
  (* segment [i] contains [lo] (it is 0 for [lo <= 0.]); the scans
     start at the first breakpoint at, or past, [lo] *)
  let i = seg_index f lo in
  if hi = infinity then
    if final_slope f > 0. then infinity
    else
      let k = if segs.(i).x >= lo then i else i + 1 in
      breakpoints_from k (fun _ -> true) (point neg_infinity lo)
  else
    let k = if segs.(i).x > lo then i else i + 1 in
    breakpoints_from k (fun x -> x < hi) (point (point neg_infinity lo) hi)

let first_crossing_below f ~rate =
  let open Float_ops in
  let h t = eval f t -. (rate *. t) in
  let segs = segments f in
  let rec walk = function
    | (x, _, s) :: rest ->
        let next_x = match rest with (nx, _, _) :: _ -> nx | [] -> infinity in
        let hx = h x in
        if hx <~ 0. then x
        else if hx =~ 0. then
          (* touching the line; below iff the segment does not escape up *)
          if s <=~ rate then x else walk rest
        else if s <~ rate then
          let t = x +. (hx /. (rate -. s)) in
          if t < next_x || not (Float.is_finite next_x) then t else walk rest
        else walk rest
    | [] -> infinity
  in
  walk segs

let first_crossing_under f ~below =
  let open Float_ops in
  (* Scan the merged breakpoints plus the crossings of f - below; the
     infimum of { t > 0 : f t <= below t } is one of those points (the
     difference is affine between consecutive candidates).  A mere
     touch point (difference 0 but escaping upward again) does not end
     a busy period, mirroring first_crossing_below: a candidate counts
     only if the difference stays <= 0 just after it, which we decide
     by probing the midpoint to the next candidate. *)
  let a = f.segs and b = below.segs in
  let candidates = Array.make (2 * (Array.length a + Array.length b - 1)) 0. in
  let n = ref 0 in
  iter_crossings a b (fun x _ _ ->
      candidates.(!n) <- x;
      Stdlib.incr n);
  let n = !n in
  let h t = eval f t -. eval below t in
  let rec scan k =
    if k = n then
      (* after the last candidate the difference is affine *)
      if final_slope f <~ final_slope below then
        let t0 = candidates.(n - 1) in
        let slope = final_slope f -. final_slope below in
        t0 +. (h t0 /. -.slope)
      else infinity
    else
      let t = candidates.(k) in
      let probe () =
        if k + 1 < n then (t +. candidates.(k + 1)) /. 2. else t +. 1.
      in
      if h t <~ 0. then t
      else if h t =~ 0. && h (probe ()) <=~ 0. then t
      else scan (k + 1)
  in
  scan 0

let equal f g =
  same f g
  ||
  let open Float_ops in
  let a = f.segs and b = g.segs in
  let na = Array.length a and nb = Array.length b in
  (* [eval] at a [t] from the merged point that segment [i] contains
     up to the next merged point, which a midpoint can round up onto *)
  let value segs i t = if next_x segs i <= t then at segs.(i + 1) t else at segs.(i) t in
  let agree i j t = value a i t =~ value b j t in
  (* every merged breakpoint, the midpoint of each interval, and two
     points past the last breakpoint *)
  let rec go i j =
    let sa = a.(i) and sb = b.(j) in
    let x = if sa.x >= sb.x then sa.x else sb.x in
    agree i j x
    &&
    if i + 1 = na && j + 1 = nb then agree i j (x +. 1.) && agree i j (x +. 2.)
    else
      let xa = next_x a i and xb = next_x b j in
      agree i j ((x +. Float.min xa xb) /. 2.)
      && go (if xa <= xb then i + 1 else i) (if xb <= xa then j + 1 else j)
  in
  go 0 0
