type t = Integrated.t

let network = Integrated.network
let pairing = Integrated.pairing
let flow_delay = Integrated.flow_delay
let all_flow_delays = Integrated.all_flow_delays
let envelope_at = Integrated.envelope_at
let server_backlog = Integrated.server_backlog
let server_flow_backlogs = Integrated.server_flow_backlogs
let local_backlog = Integrated.local_backlog
let flow_backlog = Integrated.flow_backlog

let require_sp_or_fifo net =
  let kinds =
    Network.servers net
    |> List.map (fun (s : Server.t) ->
           match s.discipline with
           | Discipline.Static_priority | Discipline.Fifo -> s.discipline
           | d ->
               invalid_arg
                 (Printf.sprintf
                    "Integrated_sp: server %s is %s; only FIFO/static-priority \
                     servers are supported"
                    s.name (Discipline.to_string d)))
    |> List.sort_uniq compare
  in
  if List.length kinds > 1 then
    invalid_arg
      "Integrated_sp: mixing FIFO and static-priority servers is not \
       supported (priority classes would not be consistent across a pair)"

(* Priority of a flow at a server: at a FIFO server every flow is in
   one class. *)
let class_of net sid (f : Flow.t) =
  match (Network.server net sid).Server.discipline with
  | Discipline.Fifo -> 0
  | _ -> f.Flow.priority

let sorted_classes net sid flows =
  flows
  |> List.map (class_of net sid)
  |> List.sort_uniq compare

(* Integrated's pass, one priority class at a time in urgency order:
   each class queue is served by its leftover curve, and at a FIFO
   server the single class sees the full rate line. *)
let analyze_raw ~options ~strategy net =
  require_sp_or_fifo net;
  let pairing = Pairing.build net strategy in
  let t = Integrated.create ~options net pairing in
  let agg = Integrated.aggregate t in
  let blocking = options.Options.sp_blocking in
  let rate sid = (Network.server net sid).Server.rate in
  List.iteri
    (fun idx subnet ->
      match subnet with
      | Pairing.Single u ->
          let present = Network.flows_at net u in
          List.iter
            (fun p ->
              let mine = List.filter (fun f -> class_of net u f = p) present
              and higher =
                List.filter (fun f -> class_of net u f < p) present
              in
              Integrated.single_step t idx u mine
                (if Integrated.poisoned t u (mine @ higher) then None
                 else
                   let beta =
                     Static_priority.class_service ~rate:(rate u)
                       ~higher:(agg u higher) ~blocking ()
                   in
                   let own = agg u mine in
                   Some
                     (beta, own, Pair_analysis.single_general ~beta ~agg:own)))
            (sorted_classes net u present)
      | Pairing.Pair (u, v) ->
          let s12_all, s1_all, s2_all = Integrated.split_pair net u v in
          let at_u = Network.flows_at net u in
          (* Per-class server-1 delays, filled in urgency order; used
             to build the transit part of the higher-priority envelope
             at server 2. *)
          let d1_by_class = Hashtbl.create 4 in
          List.iter
            (fun p ->
              let in_class f = class_of net u f = p in
              let s12 = List.filter in_class s12_all in
              let s1 = List.filter in_class s1_all in
              let s2 = List.filter in_class s2_all in
              let higher_u = List.filter (fun f -> class_of net u f < p) at_u in
              let higher_s2 =
                List.filter (fun (f : Flow.t) -> class_of net v f < p) s2_all
              in
              let higher_s12 =
                List.filter (fun f -> class_of net u f < p) s12_all
              in
              let input () =
                (* Higher-priority arrivals at server 2: fresh s2 flows
                   with their propagated envelopes, plus the transit of
                   higher classes through server 1 — delay-inflated per
                   class and capped by the shared link as one group. *)
                let link = Pwl.affine ~y0:0. ~slope:(rate u) in
                let transit_higher =
                  match higher_s12 with
                  | [] -> Pwl.zero
                  | flows ->
                      let inflated =
                        List.map
                          (fun (f : Flow.t) ->
                            match
                              Hashtbl.find_opt d1_by_class (class_of net u f)
                            with
                            | Some dq when dq <> infinity ->
                                Pwl.shift_left (Integrated.env_at t f u) dq
                            | _ -> link)
                          flows
                      in
                      Pwl.min_pw link (Pwl.sum inflated)
                in
                let h2 = Pwl.add (agg v higher_s2) transit_higher in
                let beta1 =
                  Static_priority.class_service ~rate:(rate u)
                    ~higher:(agg u higher_u) ~blocking ()
                in
                let beta2 =
                  Static_priority.class_service ~rate:(rate v) ~higher:h2
                    ~blocking ()
                in
                if Pwl.final_slope beta1 <= 0. || Pwl.final_slope beta2 <= 0.
                then None
                else
                  Some
                    {
                      Pair_analysis.link1 = rate u;
                      beta1;
                      beta2;
                      g12 = agg u s12;
                      g1 = agg u s1;
                      g2 = agg v s2;
                    }
              in
              let result =
                Integrated.pair_step t idx (u, v) ~s12 ~s1 ~s2
                  (if
                     Integrated.poisoned t u (s12 @ s1 @ higher_u)
                     || Integrated.poisoned t v (s2 @ higher_s2)
                   then None
                   else input ())
              in
              Hashtbl.replace d1_by_class p result.Pair_analysis.d1)
            (sorted_classes net u (at_u @ Network.flows_at net v)))
    pairing;
  t

let memo : t Incremental.table = Incremental.table ()

let analyze ?(options = Options.default) ?(strategy = Pairing.Greedy) net =
  Incremental.memoize memo
    (Incremental.net_key ~options ~strategy net)
    (fun () -> analyze_raw ~options ~strategy net)
