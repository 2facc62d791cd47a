(* Operation-cost metrics (see DESIGN.md "Observability"): min-plus
   operations dominate analysis runtime, so each entry point counts its
   calls and records the breakpoint complexity of its result.  All
   recording is branch-guarded by Obs and free when disabled. *)
let c_conv = Metrics.counter "pwl.conv.calls"
let c_conv_rate = Metrics.counter "pwl.conv_with_rate.calls"
let d_conv_bps = Metrics.dist "pwl.conv.breakpoints"

(* Memo cache for [conv].  The figure sweeps rebuild the same
   Service-Curve prefix convolutions many times over (neighbouring
   sweep cells share most of their curves), so even a small
   exact-match cache removes a large fraction of the kernel work.
   Keys are the operands' uids ({!Pwl.uid}, interned on demand; this
   cache is their only reader): equal uids mean bit-identical
   segments, so two separately-built but equal curves share an entry,
   and the stored key is two machine words instead of the segments.
   Values are immutable [Pwl.t], so returning the cached value is
   indistinguishable from recomputing: a hit is byte-identical to a
   miss, which the determinism tests pin.  (After an intern-table
   reset, equal curves get fresh uids and the lookup misses — a
   recompute of the identical value, never a wrong hit: uids are not
   reused.)  Guarded by one lock: netcalc.par worker domains hit this
   table concurrently. *)
module Cache_key = struct
  type t = { a : int; b : int }

  let equal k1 k2 = k1.a = k2.a && k1.b = k2.b
  let hash { a; b } = (((a * 31) + b) * 0x9e3779b9) land max_int
end

module Cache_tbl = Hashtbl.Make (Cache_key)

let cache_lock = Obs_sync.create ()
let cache_cap = 4096
let conv_cache : Pwl.t Cache_tbl.t = Cache_tbl.create 256
[@@lint.domain_safe
  "[cached], [cache_clear] and [cache_stats] perform every table \
   operation under cache_lock"]

(* Hit/miss counters are recorded unconditionally (not Prof-guarded):
   they cost one mutex round-trip next to a kernel call that costs far
   more, and [cache_stats] must be accurate even when profiling was
   enabled only for the final report. *)
let c_cache_hit = Metrics.counter "pwl.cache.hits"
let c_cache_miss = Metrics.counter "pwl.cache.misses"

type cache_stats = { hits : int; misses : int; entries : int }

let cache_clear () =
  Obs_sync.with_lock cache_lock (fun () -> Cache_tbl.reset conv_cache)

let cache_stats () =
  let entries =
    Obs_sync.with_lock cache_lock (fun () -> Cache_tbl.length conv_cache)
  in
  { hits = Metrics.value c_cache_hit;
    misses = Metrics.value c_cache_miss;
    entries }

let cached f g compute =
  let key = { Cache_key.a = Pwl.uid f; b = Pwl.uid g } in
  match
    Obs_sync.with_lock cache_lock (fun () -> Cache_tbl.find_opt conv_cache key)
  with
  | Some r ->
      Metrics.incr c_cache_hit;
      r
  | None ->
      Metrics.incr c_cache_miss;
      (* Compute outside the lock: kernels are the expensive part, and
         a concurrent duplicate computation of the same key is harmless
         (both produce the identical value). *)
      let r = compute () in
      Obs_sync.with_lock cache_lock (fun () ->
          if Cache_tbl.length conv_cache >= cache_cap then
            Cache_tbl.reset conv_cache;
          if not (Cache_tbl.mem conv_cache key) then
            Cache_tbl.add conv_cache key r);
      r

(* Convex (x) convex: sort the slope pieces of both operands by
   increasing slope and concatenate, starting from the sum of the
   initial values.  Pieces steeper than the smaller of the two final
   slopes can never be reached (they would follow an infinite piece). *)
let conv_convex f g =
  let pieces h =
    let rec walk = function
      | (x, _, s) :: ((nx, _, _) :: _ as rest) -> (s, nx -. x) :: walk rest
      | [ (_, _, s) ] -> [ (s, infinity) ]
      | [] -> []
    in
    walk (Pwl.segments h)
  in
  let final = Float.min (Pwl.final_slope f) (Pwl.final_slope g) in
  let finite_pieces =
    pieces f @ pieces g
    |> List.filter (fun (s, len) -> Float.is_finite len && s < final)
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let y0 = Pwl.value_at_zero f +. Pwl.value_at_zero g in
  let rec build x y = function
    | (s, len) :: rest -> (x, y, s) :: build (x +. len) (y +. (s *. len)) rest
    | [] -> [ (x, y, final) ]
  in
  Pwl.make (build 0. y0 finite_pieces)

let conv f g =
  Prof.count c_conv;
  cached f g (fun () ->
      let fail () =
        invalid_arg
          "Minplus.conv: unsupported shape combination (need concave x \
           concave or convex x convex)"
      in
      let r =
        match (Pwl.shape f, Pwl.shape g) with
        | (`Concave | `Affine), (`Concave | `Affine) -> Pwl.min_pw f g
        | (`Convex | `Affine), (`Convex | `Affine) -> conv_convex f g
        | _ -> fail ()
      in
      if Prof.enabled () then
        Metrics.observe d_conv_bps
          (float_of_int (List.length (Pwl.breakpoints r)));
      r)

let conv_list = function
  | [] -> invalid_arg "Minplus.conv_list: empty list"
  | f :: rest -> List.fold_left conv f rest

let conv_with_rate ~rate g =
  Prof.count c_conv_rate;
  if rate <= 0. then invalid_arg "Minplus.conv_with_rate: rate <= 0";
  if not (Pwl.is_nondecreasing g) then
    invalid_arg "Minplus.conv_with_rate: input must be nondecreasing";
  (* Candidate minimizers of g s - rate s are the breakpoints (value
     and left limit — the function is affine in between, so interior
     minima sit at segment ends; the s = t candidate is the g-branch of
     the outer min).  Build the running minimum as a step function over
     the same abscissae; the result is min (g t, rate t + m t).  The
     running minimum starts at 0: g is a cumulative function that
     vanishes before the origin, so an instantaneous burst at 0
     (g 0 > 0) still leaves the server starting from an empty system.
     The abscissae are exactly g's segment starts, so both the value
     (the segment's own y) and the left limit (the previous segment
     extrapolated) fall out of one walk — no evaluation, no search. *)
  let steps, _, _ =
    List.fold_left
      (fun (acc, best, prev) (x, y, slope) ->
        let left =
          match prev with
          | None -> y
          | Some (px, py, ps) -> py +. (ps *. (x -. px))
        in
        let v = Float.min (y -. (rate *. x)) (left -. (rate *. x)) in
        let best = Float.min best v in
        ((x, best, 0.) :: acc, best, Some (x, y, slope)))
      ([], 0., None) (Pwl.segments g)
  in
  let m = Pwl.make (List.rev steps) in
  Pwl.min_pw g (Pwl.add (Pwl.affine ~y0:0. ~slope:rate) m)

let busy_period ~agg ~rate = Pwl.first_crossing_below agg ~rate

let stable ~agg ~rate =
  let open Float_ops in
  Pwl.final_slope agg <~ rate
