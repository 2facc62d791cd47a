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

   Cells served from the shared pass count as [incremental.reuse]; the
   underlying max-tandem analyses go through the per-method memo tables
   ({!Incremental}), so repeated figures over the same grid (fig4 vs
   fig6, delay vs improvement tables) reuse even the shared passes.
   With the engine disabled the grid falls back to one scratch
   [Engine.compare_all] per cell — the determinism tests pin that both
   paths produce byte-identical tables. *)

let scratch ~sigma ~peak u n =
  let t = Tandem.make ~n ~utilization:u ~sigma ~peak () in
  Engine.compare_all ~strategy:(Pairing.Along_route 0) ~with_theta:false
    t.network 0

let per_load ~sigma ~peak ~hops u =
  let n_max = List.fold_left max 2 hops in
  let t = Tandem.make ~n:n_max ~utilization:u ~sigma ~peak () in
  let net = t.network in
  let alpha = Flow.source_curve t.conn0 in
  let dd = Decomposed.analyze net in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
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
     route order. *)
  let integ_pairs = Array.of_list (Integrated.subnet_delays integ 0) in
  let integ_delay n' =
    if n' mod 2 = 0 then begin
      let total = ref 0. in
      for i = 0 to (n' / 2) - 1 do
        total := !total +. snd integ_pairs.(i)
      done;
      !total
    end
    else
      let tp = Tandem.make ~n:n' ~utilization:u ~sigma ~peak () in
      Integrated.flow_delay
        (Integrated.analyze ~strategy:(Pairing.Along_route 0) tp.network)
        0
  in
  (* Per-server backlogs at servers [< n'] are shared with the max
     pairing's first [n'/2] pairs. *)
  let integ_prefix = prefix_max (Integrated.local_backlog integ) in
  let integ_backlog n' =
    if n' mod 2 = 0 then integ_prefix.(n')
    else
      let tp = Tandem.make ~n:n' ~utilization:u ~sigma ~peak () in
      Integrated.flow_backlog
        (Integrated.analyze ~strategy:(Pairing.Along_route 0) tp.network)
        0
  in
  List.map
    (fun n' ->
      Incremental.note_reuse ();
      {
        Engine.flow = 0;
        decomposed = dd_delay.(n');
        service_curve = sc_delay.(n');
        integrated = integ_delay n';
        fifo_theta = nan;
        decomposed_backlog = dd_backlog.(n');
        integrated_backlog = integ_backlog n';
      })
    hops

let tandem_grid ?(sigma = 1.) ?(peak = 1.) ~hops ~loads () =
  if hops = [] || loads = [] then []
  else if not (Incremental.enabled ()) then
    let cells =
      List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads
    in
    Par.map (fun (u, n) -> scratch ~sigma ~peak u n) cells
  else List.concat (Par.map (per_load ~sigma ~peak ~hops) loads)
