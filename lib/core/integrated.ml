type t = {
  fw : Forward.t; (* the envelope table and the poison marks *)
  pairing : Pairing.subnet array;
  contributions : (int * int, float) Hashtbl.t; (* (flow, subnet idx) *)
  server_backlogs : (int, float) Hashtbl.t; (* sum over the server's queues *)
  flow_backlogs : (int * int, float) Hashtbl.t; (* (flow, server) *)
}

let create ~options net pairing =
  {
    fw = Forward.create ~options net (Propagation.create net);
    pairing = Array.of_list pairing;
    contributions = Hashtbl.create 64;
    server_backlogs = Hashtbl.create 16;
    flow_backlogs = Hashtbl.create 64;
  }

let network t = Forward.network t.fw
let pairing t = Array.to_list t.pairing

let require_fifo net =
  List.iter
    (fun (s : Server.t) ->
      if s.discipline <> Discipline.Fifo then
        invalid_arg
          (Printf.sprintf
             "Integrated: server %s is %s; the integrated method is derived \
              for FIFO servers only"
             s.name
             (Discipline.to_string s.discipline)))
    (Network.servers net)

let poisoned t sid flows =
  List.exists
    (fun (f : Flow.t) -> Forward.is_poisoned t.fw ~flow:f.id ~server:sid)
    flows

let env_at t (f : Flow.t) sid =
  Propagation.get (Forward.envs t.fw) ~flow:f.id ~server:sid

let aggregate t sid flows =
  if flows = [] then Pwl.zero
  else
    Propagation.aggregate_input ~options:(Forward.options t.fw) (network t)
      (Forward.envs t.fw) ~server:sid ~flows

(* A flow's delay [d] across subnet [idx], entered at [entry] and left
   after [last]: its envelope past [last] is the entry one shifted by
   [d], or unbounded. *)
let record t idx (f : Flow.t) ~entry ~last d =
  Hashtbl.replace t.contributions (f.id, idx) d;
  if d = infinity then Forward.poison_rest t.fw f ~from:last
  else
    match Flow.next_hop f last with
    | None -> ()
    | Some next ->
        Propagation.set (Forward.envs t.fw) ~flow:f.id ~server:next
          (Pwl.shift_left (env_at t f entry) d)

let add_server_backlog t sid b =
  let cur = Option.value ~default:0. (Hashtbl.find_opt t.server_backlogs sid) in
  Hashtbl.replace t.server_backlogs sid (cur +. b)

(* One queue's backlog bounds at [sid]: its vertical deviation from the
   service [beta] it receives, added to the server's total (a
   static-priority server sums its class queues), and each flow's
   minimal FIFO split of it ([None]: the flow's envelope there is
   unbounded). *)
let record_backlogs t sid ~beta ~agg ~alphas =
  add_server_backlog t sid (Deviation.vdev ~alpha:agg ~beta);
  List.iter
    (fun ((f : Flow.t), alpha_i) ->
      Hashtbl.replace t.flow_backlogs (f.id, sid)
        (match alpha_i with
        | Some alpha_i -> Deviation.vdev_per_flow ~alpha_i ~agg ~beta
        | None -> infinity))
    alphas

(* The same past an unstable server: every bound is infinite. *)
let record_unbounded t sid flows =
  add_server_backlog t sid infinity;
  List.iter
    (fun (f : Flow.t) -> Hashtbl.replace t.flow_backlogs (f.id, sid) infinity)
    flows

let own_envelopes t sid flows =
  List.map (fun f -> (f, Some (env_at t f sid))) flows

let single_step t idx u flows queue =
  let d =
    match queue with
    | None ->
        record_unbounded t u flows;
        infinity
    | Some (beta, agg, d) ->
        record_backlogs t u ~beta ~agg ~alphas:(own_envelopes t u flows);
        d
  in
  List.iter (fun f -> record t idx f ~entry:u ~last:u d) flows

let split_pair net u v =
  let s12, s1 =
    List.partition
      (fun (f : Flow.t) -> Flow.next_hop f u = Some v)
      (Network.flows_at net u)
  in
  let s2 =
    List.filter
      (fun (f : Flow.t) ->
        not (List.exists (fun (g : Flow.t) -> g.id = f.id) s12))
      (Network.flows_at net v)
  in
  (s12, s1, s2)

let pair_step t idx (u, v) ~s12 ~s1 ~s2 input =
  let result =
    match input with
    | None ->
        record_unbounded t u (s12 @ s1);
        record_unbounded t v (s12 @ s2);
        Pair_analysis.unbounded
    | Some (input : Pair_analysis.general_input) ->
        let result = Pair_analysis.analyze_general input in
        let { Pair_analysis.link1; beta1; beta2; g12; g1; g2 } = input in
        record_backlogs t u ~beta:beta1 ~agg:(Pwl.add g12 g1)
          ~alphas:(own_envelopes t u (s12 @ s1));
        (* At server v the transit aggregate is the integrated window
           (link-capped, delay-inflated as a whole); each transit
           flow's own envelope there is its upstream one shifted by the
           server-1 class bound d1. *)
        let d1 = result.Pair_analysis.d1 in
        let link = Pwl.affine ~y0:0. ~slope:link1 in
        let transit =
          if d1 = infinity then link
          else Pwl.min_pw link (Pwl.shift_left g12 d1)
        in
        record_backlogs t v ~beta:beta2 ~agg:(Pwl.add transit g2)
          ~alphas:
            (List.map
               (fun f ->
                 ( f,
                   if Float_ops.is_finite d1 then
                     Some (Pwl.shift_left (env_at t f u) d1)
                   else None ))
               s12
            @ own_envelopes t v s2);
        result
  in
  List.iter (fun f -> record t idx f ~entry:u ~last:v result.d_pair) s12;
  List.iter (fun f -> record t idx f ~entry:u ~last:u result.d1) s1;
  List.iter (fun f -> record t idx f ~entry:v ~last:v result.d2) s2;
  result

let c_pairs = Metrics.counter "integrated.subnets.pairs"
let c_singles = Metrics.counter "integrated.subnets.singles"

let analyze_with_pairing ?(options = Options.default) net pairing_list =
  Prof.span "integrated.analyze" @@ fun () ->
  require_fifo net;
  Pairing.validate net pairing_list;
  let t = create ~options net pairing_list in
  let rate sid = (Network.server net sid).Server.rate in
  Array.iteri
    (fun idx subnet ->
      match subnet with
      | Pairing.Single u ->
          Prof.count c_singles;
          let present = Network.flows_at net u in
          if present <> [] then
            single_step t idx u present
              (if poisoned t u present then None
               else
                 let agg = aggregate t u present in
                 Some
                   ( Service.constant_rate (rate u),
                     agg,
                     Fifo.local_delay ~rate:(rate u) ~agg ))
      | Pairing.Pair (u, v) ->
          Prof.count c_pairs;
          let s12, s1, s2 = split_pair net u v in
          pair_step t idx (u, v) ~s12 ~s1 ~s2
            (if poisoned t u (s12 @ s1) || poisoned t v s2 then None
             else
               Some
                 {
                   Pair_analysis.link1 = rate u;
                   beta1 = Service.constant_rate (rate u);
                   beta2 = Service.constant_rate (rate v);
                   g12 = aggregate t u s12;
                   g1 = aggregate t u s1;
                   g2 = aggregate t v s2;
                 })
          |> ignore)
    t.pairing;
  t

let memo : t Incremental.table = Incremental.table ()

let analyze ?(options = Options.default) ?(strategy = Pairing.Greedy) net =
  Incremental.memoize memo
    (Incremental.net_key ~options ~strategy net)
    (fun () -> analyze_with_pairing ~options net (Pairing.build net strategy))

let flow_delay t id =
  let total = ref 0. in
  Array.iteri
    (fun idx _ ->
      match Hashtbl.find_opt t.contributions (id, idx) with
      | Some d -> total := !total +. d
      | None -> ())
    t.pairing;
  !total

let all_flow_delays t =
  Network.flows (network t)
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let subnet_delay_opt t ~flow ~subnet =
  let idx = ref None in
  Array.iteri (fun i s -> if s = subnet then idx := Some i) t.pairing;
  match !idx with
  | None -> None
  | Some i -> Hashtbl.find_opt t.contributions (flow, i)

let subnet_delay t ~flow ~subnet =
  match subnet_delay_opt t ~flow ~subnet with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf
           "Integrated.subnet_delay: flow %d does not cross the requested \
            subnet"
           flow)

let envelope_at t = Forward.envelope_at t.fw

let server_backlog t sid =
  match Hashtbl.find_opt t.server_backlogs sid with Some b -> b | None -> 0.

let local_backlog t ~flow ~server =
  match Hashtbl.find_opt t.flow_backlogs (flow, server) with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf
           "Integrated.local_backlog: flow %d does not cross server %d" flow
           server)

let server_flow_backlogs t sid =
  Network.flows_at (network t) sid
  |> List.map (fun (f : Flow.t) -> (f.id, local_backlog t ~flow:f.id ~server:sid))
  |> List.sort compare

let flow_backlog t id =
  let f = Network.flow (network t) id in
  List.fold_left
    (fun acc s -> Float.max acc (local_backlog t ~flow:id ~server:s))
    0. f.route
