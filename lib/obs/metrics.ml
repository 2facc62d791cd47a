type counter = { mutable n : int }

(* The running sum and extremes live in an all-float record, which
   OCaml stores unboxed: an update writes the value in place.  Kept in
   [dist] itself they would be boxed, and a new extreme would keep the
   caller's box alive, so what the next minor collection promotes would
   depend on the observed values. *)
type moments = {
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type dist = { mutable count : int; moments : moments }

type peak = { mutable pmax : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let dists : (string, dist) Hashtbl.t = Hashtbl.create 32
let peaks : (string, peak) Hashtbl.t = Hashtbl.create 16

(* One lock for the whole registry and every update.  Recording from
   netcalc.par worker domains would otherwise lose increments (and
   corrupt the Hashtbls on registration); a single uncontended
   lock/unlock is tens of nanoseconds, far below the min-plus
   operations being counted, and recording only happens when Obs is
   enabled anyway.  (Per-domain buffers merged at report time would
   shave the contention, at the price of snapshot consistency; revisit
   if a profile ever shows this lock.) *)
let m = Obs_sync.create ()

let counter name =
  Obs_sync.with_lock m (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { n = 0 } in
          Hashtbl.replace counters name c;
          c)

let incr c = Obs_sync.with_lock m (fun () -> c.n <- c.n + 1)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone (n < 0)";
  Obs_sync.with_lock m (fun () -> c.n <- c.n + n)

let value c = Obs_sync.with_lock m (fun () -> c.n)

let dist name =
  Obs_sync.with_lock m (fun () ->
      match Hashtbl.find_opt dists name with
      | Some d -> d
      | None ->
          let d =
            { count = 0;
              moments = { sum = 0.; vmin = infinity; vmax = neg_infinity } }
          in
          Hashtbl.replace dists name d;
          d)

let observe d v =
  Obs_sync.with_lock m (fun () ->
      d.count <- d.count + 1;
      d.moments.sum <- d.moments.sum +. v;
      if v < d.moments.vmin then d.moments.vmin <- v;
      if v > d.moments.vmax then d.moments.vmax <- v)

let peak name =
  Obs_sync.with_lock m (fun () ->
      match Hashtbl.find_opt peaks name with
      | Some p -> p
      | None ->
          let p = { pmax = 0 } in
          Hashtbl.replace peaks name p;
          p)

let observe_peak p v =
  Obs_sync.with_lock m (fun () -> if v > p.pmax then p.pmax <- v)


type dist_stats = {
  count : int;
  sum : float;
  mean : float;
  dmin : float;
  dmax : float;
}

(* Callers must hold [m]. *)
let dist_stats_unlocked (d : dist) =
  {
    count = d.count;
    sum = d.moments.sum;
    mean =
      (if d.count = 0 then nan else d.moments.sum /. float_of_int d.count);
    dmin = d.moments.vmin;
    dmax = d.moments.vmax;
  }

let dist_stats d = Obs_sync.with_lock m (fun () -> dist_stats_unlocked d)

let reset () =
  Obs_sync.with_lock m (fun () ->
      Hashtbl.iter (fun _ c -> c.n <- 0) counters;
      Hashtbl.iter
        (fun _ (d : dist) ->
          d.count <- 0;
          d.moments.sum <- 0.;
          d.moments.vmin <- infinity;
          d.moments.vmax <- neg_infinity)
        dists;
      Hashtbl.iter (fun _ (p : peak) -> p.pmax <- 0) peaks)

type snapshot = {
  counters : (string * int) list;
  dists : (string * dist_stats) list;
  peaks : (string * int) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  Obs_sync.with_lock m (fun () ->
      {
        counters = sorted_bindings counters (fun c -> c.n);
        dists = sorted_bindings dists dist_stats_unlocked;
        peaks = sorted_bindings peaks (fun p -> p.pmax);
      })

let to_table () =
  let s = snapshot () in
  let tbl =
    Table.create
      ~header:[ "metric"; "kind"; "count"; "sum"; "mean"; "min"; "max" ]
  in
  List.iter
    (fun (name, n) ->
      if n > 0 then
        Table.add_row tbl [ name; "counter"; string_of_int n ])
    s.counters;
  List.iter
    (fun (name, (st : dist_stats)) ->
      if st.count > 0 then
        Table.add_row tbl
          [
            name; "dist"; string_of_int st.count; Table.float_cell st.sum;
            Table.float_cell st.mean; Table.float_cell st.dmin;
            Table.float_cell st.dmax;
          ])
    s.dists;
  List.iter
    (fun (name, v) ->
      if v > 0 then
        Table.add_row tbl [ name; "peak"; ""; ""; ""; ""; string_of_int v ])
    s.peaks;
  tbl
