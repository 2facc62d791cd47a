(* Incremental (U, n) tandem sweeps — the paper's whole evaluation grid
   (Figures 4-6) as a single forward pass per load.

   The tandem family is prefix-closed: in [Tandem.make ~n], the flow
   population and every input envelope at middle server [k] are
   identical for all tandems with [n > k] (shrinking the tandem only
   removes servers {e downstream} of [k] — B_(n'-1)'s route truncation
   included).  A feedforward propagation at server [k] depends only on
   servers [< k], so one analysis of the largest tandem determines the
   delays of every prefix, bit for bit:

   - Decomposed: conn0's bound on [n'] hops is the running prefix sum
     (in route order, the same left fold as [Decomposed.flow_delay]) of
     the local delays computed on the max tandem.
   - Service Curve: the network curve of the [n'] prefix is the running
     [Minplus.conv] prefix of the per-hop leftover curves (the same
     left-fold association as [Minplus.conv_list]), with the same
     saturation rule: any saturated or poisoned hop [< n'] means
     [infinity].
   - Integrated (Along_route 0): the pairing of an even prefix is
     exactly the first [n'/2] pairs of the max pairing plus exit
     singletons that carry no conn0 contribution, so conn0's bound is
     the prefix sum of pair contributions in pairing order.  Odd
     prefixes pair differently (a trailing singleton mid), so they fall
     back to a direct analysis — every figure in the paper uses even
     hop counts.

   Cells served from the shared pass count as [incremental.reuse].
   The two max-tandem analyses are memoized ({!Incremental}) under the
   bit patterns of (sigma, peak, load) and the largest hop count, so
   repeated figures over the same grid (fig4 vs fig6, fig5's hops on
   fig4's largest tandem) reuse the shared passes.  The Service-Curve
   analysis and the prefix arrays are rebuilt per call: their repeated
   convolutions are what the [Minplus] cache serves. *)

(* The key determines the value: the compute reads only the key's
   components and constants ([Options.default], [Along_route 0]). *)
let memo = Incremental.table ()

let max_tandem ~sigma ~peak ~n_max u =
  let key =
    ( Int64.bits_of_float sigma,
      Int64.bits_of_float peak,
      Int64.bits_of_float u,
      n_max )
  in
  Incremental.memoize memo key (fun () ->
      let net = (Tandem.make ~n:n_max ~utilization:u ~sigma ~peak ()).network in
      ( Decomposed.analyze net,
        Integrated.analyze ~strategy:(Pairing.Along_route 0) net ))

let per_load ~sigma ~peak ~hops u =
  let n_max = List.fold_left max 2 hops in
  let dd, integ = max_tandem ~sigma ~peak ~n_max u in
  let alpha = Flow.source_curve (Network.flow (Decomposed.network dd) 0) in
  let scm = Service_curve_method.analyze dd in
  (* Running prefix sums/convolutions over the middle servers, indexed
     by prefix length. *)
  let dd_delay = Array.make (n_max + 1) 0. in
  for k = 0 to n_max - 1 do
    dd_delay.(k + 1) <-
      dd_delay.(k) +. Decomposed.local_delay dd ~flow:0 ~server:k
  done;
  (* Buffer requirement is a running prefix {e max} (the same left fold
     as [Forward.route_max]), each hop read once. *)
  let prefix_max hop_backlog =
    let m = Array.make (n_max + 1) 0. in
    for k = 0 to n_max - 1 do
      m.(k + 1) <- Float.max m.(k) (hop_backlog ~flow:0 ~server:k)
    done;
    m
  in
  let dd_backlog = prefix_max (Decomposed.local_backlog dd) in
  let sc_delay = Array.make (n_max + 1) infinity in
  let conv = ref None and saturated = ref false in
  for k = 0 to n_max - 1 do
    if not !saturated then
      (match Service_curve_method.hop_service_curve scm ~flow:0 ~server:k with
      | beta ->
          if Pwl.final_slope beta <= 0. then saturated := true
          else
            conv :=
              Some
                (match !conv with
                | None -> beta
                | Some c -> Minplus.conv c beta)
      | exception Invalid_argument _ -> saturated := true);
    sc_delay.(k + 1) <-
      (if !saturated then infinity
       else
         match !conv with
         | Some beta -> Deviation.hdev ~alpha ~beta
         | None -> infinity)
  done;
  (* conn0 meets the max pairing's pairs (0, 1), (2, 3), ... first, in
     route order; per-server backlogs at servers [< n'] are shared with
     the max pairing's first [n'/2] pairs.  An odd prefix pairs
     differently, so it runs its own analysis, read for both. *)
  let integ_pairs = Array.of_list (Integrated.subnet_delays integ 0) in
  let integ_prefix = prefix_max (Integrated.local_backlog integ) in
  let integ_cell n' =
    if n' mod 2 = 0 then begin
      let total = ref 0. in
      for i = 0 to (n' / 2) - 1 do
        total := !total +. snd integ_pairs.(i)
      done;
      (!total, integ_prefix.(n'))
    end
    else
      let tp = Tandem.make ~n:n' ~utilization:u ~sigma ~peak () in
      let a = Integrated.analyze ~strategy:(Pairing.Along_route 0) tp.network in
      (Integrated.flow_delay a 0, Integrated.flow_backlog a 0)
  in
  List.map
    (fun n' ->
      Incremental.note_reuse ();
      let integrated, integrated_backlog = integ_cell n' in
      {
        Engine.flow = 0;
        decomposed = dd_delay.(n');
        service_curve = sc_delay.(n');
        integrated;
        fifo_theta = nan;
        decomposed_backlog = dd_backlog.(n');
        integrated_backlog;
      })
    hops

let tandem_grid ?(sigma = 1.) ?(peak = 1.) ~hops ~loads () =
  if hops = [] || loads = [] then []
  else List.concat (Par.map (per_load ~sigma ~peak ~hops) loads)
