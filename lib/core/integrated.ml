module Hop_tbl = Propagation.Hop_tbl

(* One class queue at a server: the window it is bounded from and the
   service it receives, kept once for all of its flows. *)
type queue = { agg : Pwl.t; beta : Pwl.t }

(* What a flow's minimal FIFO split at one hop reads: its queue and its
   own envelope there. *)
type hop =
  | Own of queue (* the envelope the pass installed at the hop *)
  | Shifted of queue * int * float
      (* a transit flow at a pair's second server: its envelope at the
         first one, shifted by the class's server-1 delay *)
  | Unbounded

type t = {
  fw : Forward.t; (* the envelope table and the poison marks *)
  pairing : Pairing.t;
  (* (flow, the server where it enters the subnet): the subnet and the
     flow's delay across it *)
  contributions : (Pairing.subnet * float) Hop_tbl.t;
  server_backlogs : (int, float) Hashtbl.t; (* sum over the server's queues *)
  (* flow id -> one entry per hop of its route, each written by the
     step of the hop's subnet *)
  hops : (int, hop array) Hashtbl.t;
  (* the splits, once read: the pass is finished before anything reads
     them, so a kept value never goes stale *)
  flow_backlogs : Propagation.hop_store;
}

let create ~options net pairing =
  let hops = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) ->
      Hashtbl.replace hops f.id (Array.make (List.length f.route) Unbounded))
    (Network.flows net);
  {
    (* The pass writes no local bounds: [Forward]'s table of them stays
       at its smallest size. *)
    fw = Forward.create ~size_hint:1 ~options net (Propagation.create net);
    pairing;
    contributions = Hop_tbl.create 64;
    server_backlogs = Hashtbl.create 16;
    hops;
    flow_backlogs = Propagation.hop_store ();
  }

let network t = Forward.network t.fw
let pairing t = t.pairing

let require_fifo_or_sp net =
  let kinds =
    Network.servers net
    |> List.map (fun (s : Server.t) ->
           match s.discipline with
           | Discipline.Fifo | Discipline.Static_priority -> s.discipline
           | d ->
               invalid_arg
                 (Printf.sprintf
                    "Integrated: server %s is %s; the integrated method covers \
                     FIFO and static-priority servers only"
                    s.name (Discipline.to_string d)))
    |> List.sort_uniq compare
  in
  if List.length kinds > 1 then
    invalid_arg
      "Integrated: mixing FIFO and static-priority servers is not supported \
       (priority classes would not be consistent across a pair)"

(* A flow's priority class at a server: a FIFO server serves all its
   flows as one class. *)
let class_of (s : Server.t) (f : Flow.t) =
  match s.discipline with
  | Discipline.Static_priority -> f.priority
  | _ -> 0

let classes s flows = List.sort_uniq Int.compare (List.map (class_of s) flows)

(* The service a server offers one class, given the aggregate of the
   classes it serves first: the rate line at a FIFO server, the
   leftover curve at a static-priority one.  [higher] is forced only
   at a static-priority server, and the blocking term applies only
   there. *)
let service ~options (s : Server.t) higher =
  match s.discipline with
  | Discipline.Static_priority ->
      Static_priority.class_service ~rate:s.rate ~higher:(higher ())
        ~blocking:options.Options.sp_blocking
  | _ -> Service.constant_rate s.rate

(* The delay bound of one class queue at a lone server. *)
let lone_delay (s : Server.t) ~beta ~agg =
  match s.discipline with
  | Discipline.Static_priority -> Pair_analysis.single_general ~beta ~agg
  | _ -> Fifo.local_delay ~rate:s.rate ~agg

let poisoned t sid flows =
  List.exists
    (fun (f : Flow.t) -> Forward.is_poisoned t.fw ~flow:f.id ~server:sid)
    flows

let env_at t (f : Flow.t) sid =
  Propagation.get (Forward.envs t.fw) ~flow:f.id ~server:sid

let aggregate t = Forward.aggregate t.fw

(* A flow's delay [d] across [subnet], entered at [entry] and left
   after [last]: its envelope past [last] is the entry one shifted by
   [d], or unbounded. *)
let record t subnet (f : Flow.t) ~entry ~last d =
  Hop_tbl.replace t.contributions (f.id, entry) (subnet, d);
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

let set_hops t sid flows hop =
  List.iter
    (fun (f : Flow.t) ->
      (Hashtbl.find t.hops f.id).(Option.get (Flow.hop_index f sid)) <- hop)
    flows

(* One queue's backlog bounds at [sid]: its vertical deviation from the
   service [beta] it receives, added to the server's total (a
   static-priority server sums its class queues), and what each flow's
   minimal FIFO split of it reads; [local_backlog] runs the split.
   [transit] are the transit flows at a pair's second server [sid],
   their envelope there the one at [from] shifted by [d1]. *)
let record_backlogs t sid ~beta ~agg ?transit own =
  add_server_backlog t sid (Deviation.vdev ~alpha:agg ~beta);
  let queue = { agg; beta } in
  set_hops t sid own (Own queue);
  Option.iter
    (fun (flows, from, d1) ->
      set_hops t sid flows
        (if Float_ops.is_finite d1 then Shifted (queue, from, d1)
         else Unbounded))
    transit

(* The same past an unstable server: every bound is infinite. *)
let record_unbounded t sid flows =
  add_server_backlog t sid infinity;
  set_hops t sid flows Unbounded

let single_step t u flows queue =
  let d =
    match queue with
    | None ->
        record_unbounded t u flows;
        infinity
    | Some (beta, agg, d) ->
        record_backlogs t u ~beta ~agg flows;
        d
  in
  let subnet = Pairing.Single u in
  List.iter (fun f -> record t subnet f ~entry:u ~last:u d) flows

let split_pair net u v =
  let s12, s1 =
    List.partition
      (fun (f : Flow.t) -> Flow.next_hop f u = Some v)
      (Network.flows_at net u)
  in
  let s2 =
    List.filter
      (fun (f : Flow.t) -> Flow.prev_hop f v <> Some u)
      (Network.flows_at net v)
  in
  (s12, s1, s2)

(* The pair's delays recorded for its flows; returns [d1], the
   server-1 bound of the class.  The backlogs at each server are read
   off the pair's window there. *)
let pair_step t (u, v) ~s12 ~s1 ~s2 input =
  let subnet = Pairing.Pair (u, v) in
  let record_all ~d_pair ~d1 ~d2 =
    List.iter (fun f -> record t subnet f ~entry:u ~last:v d_pair) s12;
    List.iter (fun f -> record t subnet f ~entry:u ~last:u d1) s1;
    List.iter (fun f -> record t subnet f ~entry:v ~last:v d2) s2;
    d1
  in
  match input with
  | None ->
      record_unbounded t u (s12 @ s1);
      record_unbounded t v (s12 @ s2);
      record_all ~d_pair:infinity ~d1:infinity ~d2:infinity
  | Some (input : Pair_analysis.general_input) ->
      let r = Pair_analysis.analyze_general input in
      record_backlogs t u ~beta:input.beta1 ~agg:r.window1 (s12 @ s1);
      record_backlogs t v ~beta:input.beta2 ~agg:r.window2
        ~transit:(s12, u, r.d1) s2;
      record_all ~d_pair:r.d_pair ~d1:r.d1 ~d2:r.d2

let c_pairs = Metrics.counter "integrated.subnets.pairs"
let c_singles = Metrics.counter "integrated.subnets.singles"

let analyze_with_pairing ?(options = Options.default) net pairing_list =
  Prof.span "integrated.analyze" @@ fun () ->
  require_fifo_or_sp net;
  Pairing.validate net pairing_list;
  let t = create ~options net pairing_list in
  let server = Network.server net in
  List.iter
    (fun subnet ->
      match subnet with
      | Pairing.Single u ->
          Prof.count c_singles;
          let su = server u in
          let present = Network.flows_at net u in
          List.iter
            (fun p ->
              let mine = List.filter (fun f -> class_of su f = p) present
              and higher = List.filter (fun f -> class_of su f < p) present in
              single_step t u mine
                (if poisoned t u (mine @ higher) then None
                 else
                   let beta =
                     service ~options su (fun () -> aggregate t u higher)
                   in
                   let agg = aggregate t u mine in
                   Some (beta, agg, lone_delay su ~beta ~agg)))
            (classes su present)
      | Pairing.Pair (u, v) ->
          Prof.count c_pairs;
          let su = server u and sv = server v in
          let s12_all, s1_all, s2_all = split_pair net u v in
          let at_u = Network.flows_at net u in
          (* Per-class server-1 delays, filled in urgency order; used
             to build the transit part of the higher-priority envelope
             at server 2. *)
          let d1_by_class = Hashtbl.create 4 in
          List.iter
            (fun p ->
              let in_class f = class_of su f = p
              and above f = class_of su f < p in
              let s12 = List.filter in_class s12_all
              and s1 = List.filter in_class s1_all
              and s2 = List.filter in_class s2_all
              and higher_u = List.filter above at_u
              and higher_s2 = List.filter (fun f -> class_of sv f < p) s2_all
              and higher_s12 = List.filter above s12_all in
              (* Higher-priority arrivals at server 2: fresh s2 flows
                 with their propagated envelopes, plus the transit of
                 higher classes through server 1, delay-inflated per
                 class and capped by the shared link as one group. *)
              let higher_at_v () =
                let link = Pwl.affine ~y0:0. ~slope:su.rate in
                let transit =
                  match higher_s12 with
                  | [] -> Pwl.zero
                  | flows ->
                      Pwl.min_pw link
                        (Pwl.sum
                           (List.map
                              (fun f ->
                                match
                                  Hashtbl.find_opt d1_by_class (class_of su f)
                                with
                                | Some dq when dq <> infinity ->
                                    Pwl.shift_left (env_at t f u) dq
                                | _ -> link)
                              flows))
                in
                Pwl.add (aggregate t v higher_s2) transit
              in
              let input () =
                let beta1 =
                  service ~options su (fun () -> aggregate t u higher_u)
                and beta2 = service ~options sv higher_at_v in
                if Pwl.final_slope beta1 <= 0. || Pwl.final_slope beta2 <= 0.
                then None
                else
                  Some
                    {
                      Pair_analysis.link1 = su.rate;
                      beta1;
                      beta2;
                      g12 = aggregate t u s12;
                      g1 = aggregate t u s1;
                      g2 = aggregate t v s2;
                    }
              in
              Hashtbl.replace d1_by_class p
                (pair_step t (u, v) ~s12 ~s1 ~s2
                   (if
                      poisoned t u (s12 @ s1 @ higher_u)
                      || poisoned t v (s2 @ higher_s2)
                    then None
                    else input ())))
            (classes su (at_u @ Network.flows_at net v)))
    t.pairing;
  t

let analyze ?(options = Options.default) ?(strategy = Pairing.Greedy) net =
  analyze_with_pairing ~options net (Pairing.build net strategy)

(* A flow meets each subnet once, entering it at one server, and meets
   them in pairing order, as the pairing orders the contracted graph
   topologically. *)
let subnet_delays t id =
  List.filter_map
    (fun s -> Hop_tbl.find_opt t.contributions (id, s))
    (Network.flow (network t) id).route

let flow_delay t id =
  List.fold_left (fun acc (_, d) -> acc +. d) 0. (subnet_delays t id)

let all_flow_delays t =
  Network.flows (network t)
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let envelope_at t = Forward.envelope_at t.fw

let server_backlog t sid =
  match Hashtbl.find_opt t.server_backlogs sid with Some b -> b | None -> 0.

(* The split runs on the first read of a hop, on the curves the pass
   recorded, so its bits are those of a split run during the pass. *)
let local_backlog t ~flow ~server =
  match
    Option.bind (Network.flow_opt (network t) flow) (fun f ->
        Option.map (fun i -> (f, i)) (Flow.hop_index f server))
  with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Integrated.local_backlog: flow %d does not cross server %d" flow
           server)
  | Some (f, i) -> (
      let env s = Propagation.get (Forward.envs t.fw) ~flow ~server:s in
      let split { agg; beta } alpha_i =
        Propagation.stored t.flow_backlogs f i (fun () ->
            Deviation.vdev_per_flow ~alpha_i:(alpha_i ()) ~agg ~beta)
      in
      match (Hashtbl.find t.hops flow).(i) with
      | Own queue -> split queue (fun () -> env server)
      | Shifted (queue, from, d1) ->
          split queue (fun () -> Pwl.shift_left (env from) d1)
      | Unbounded -> infinity)

let flow_backlog t id = Forward.route_max (network t) id (local_backlog t)
