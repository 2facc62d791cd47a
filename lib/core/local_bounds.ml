let at_server ~options net envs ~server:sid =
  let server = Network.server net sid in
  let present = Network.flows_at net sid in
  let env (f : Flow.t) = Propagation.get envs ~flow:f.id ~server:sid in
  let rate = server.Server.rate in
  match server.Server.discipline with
  | Discipline.Fifo ->
      let agg =
        Propagation.aggregate_input ~options net envs ~server:sid
          ~flows:present
      in
      let d = Fifo.local_delay ~rate ~agg in
      List.map (fun f -> (f, d)) present
  | Discipline.Static_priority ->
      List.map
        (fun (f : Flow.t) ->
          let of_class pred =
            Pwl.sum
              (List.filter_map
                 (fun (g : Flow.t) ->
                   if pred g.priority then Some (env g) else None)
                 present)
          in
          let higher = of_class (fun p -> p < f.priority) in
          let own = of_class (fun p -> p = f.priority) in
          ( f,
            Static_priority.local_delay ~rate ~higher ~own
              ~blocking:options.Options.sp_blocking ))
        present
  | Discipline.Edf ->
      let local_deadline (f : Flow.t) =
        match f.deadline with
        | Some d -> d /. float_of_int (List.length f.route)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Local_bounds: flow %s has no deadline but crosses EDF \
                  server %s"
                 f.name server.Server.name)
      in
      let pairs = List.map (fun f -> (env f, local_deadline f)) present in
      List.map
        (fun f -> (f, Edf.local_delay ~rate pairs ~deadline:(local_deadline f)))
        present
  | Discipline.Gps ->
      let total_weight =
        List.fold_left (fun acc (f : Flow.t) -> acc +. f.weight) 0. present
      in
      List.map
        (fun (f : Flow.t) ->
          ( f,
            Gps.local_delay ~rate ~weight:f.weight ~total_weight
              ~alpha:(env f) ))
        present
