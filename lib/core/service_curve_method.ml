type t = { net : Network.t; prop : Decomposed.t }

let analyze prop = { net = Decomposed.network prop; prop }

(* Envelope of a cross flow at a server, from the decomposed sweep. *)
let cross_envelopes t ~server ~(flow : Flow.t) =
  Network.flows_at t.net server
  |> List.filter (fun (g : Flow.t) -> g.id <> flow.id)
  |> List.map (fun (g : Flow.t) ->
         (g, Decomposed.envelope_at t.prop ~flow:g.id ~server))

let hop_service_curve t ~flow ~server =
  let f = Network.flow t.net flow in
  let s = Network.server t.net server in
  let cross = cross_envelopes t ~server ~flow:f in
  match s.discipline with
  | Discipline.Fifo | Discipline.Edf ->
      Service.leftover ~rate:s.rate ~cross:(Pwl.sum (List.map snd cross))
  | Discipline.Static_priority ->
      (* Service left after all traffic of priority <= ours (the flow
         itself is FIFO within its class, so same-class cross traffic
         also precedes it in the worst case), less the non-preemption
         blocking of the propagation's options. *)
      let competing =
        List.filter_map
          (fun ((g : Flow.t), env) ->
            if g.priority <= f.priority then Some env else None)
          cross
      in
      Static_priority.class_service ~rate:s.rate ~higher:(Pwl.sum competing)
        ~blocking:(Decomposed.options t.prop).sp_blocking
  | Discipline.Gps ->
      let total_weight =
        List.fold_left
          (fun acc ((g : Flow.t), _) -> acc +. g.weight)
          f.weight cross
      in
      Gps.flow_service ~rate:s.rate ~weight:f.weight ~total_weight

let network_service_curve t ~flow =
  let f = Network.flow t.net flow in
  let curves =
    List.map (fun sid -> hop_service_curve t ~flow ~server:sid) f.route
  in
  List.iter
    (fun beta ->
      if Pwl.final_slope beta <= 0. then
        invalid_arg
          "Service_curve_method: a hop offers no long-run service \
           (saturated by cross traffic)")
    curves;
  Minplus.conv_list curves

let flow_delay t id =
  let f = Network.flow t.net id in
  match network_service_curve t ~flow:id with
  | beta -> Deviation.hdev ~alpha:(Flow.source_curve f) ~beta
  | exception Invalid_argument _ -> infinity

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare
