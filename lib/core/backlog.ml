(* Per-flow backlog bounds from the current envelope table, read by
   the Forward pass's accessors (so every driver of that pass — the
   decomposition engine and the serve delta engine — runs the
   identical code path). *)

let beta_rate rate = Pwl.affine ~y0:0. ~slope:rate

let per_flow ~options net envs ~server:sid ~flows ~targets ~local_delay =
  let srv = Network.server net sid in
  let rate = srv.Server.rate in
  let env (f : Flow.t) = Propagation.get envs ~flow:f.id ~server:sid in
  let agg = Propagation.aggregate_input ~options net envs ~server:sid ~flows in
  let b_agg = Fifo.backlog ~rate ~agg in
  match srv.Server.discipline with
  | Discipline.Fifo ->
      let beta = beta_rate rate in
      List.map
        (fun (f : Flow.t) ->
          (f, Deviation.vdev_per_flow ~alpha_i:(env f) ~agg ~beta))
        targets
  | Discipline.Static_priority ->
      (* FIFO within a class: the minimal split applies against the
         class aggregate and the class's leftover service curve. *)
      let of_class pred =
        Pwl.sum
          (List.filter_map
             (fun (g : Flow.t) ->
               if pred g.priority then Some (env g) else None)
             flows)
      in
      List.map
        (fun (f : Flow.t) ->
          let higher = of_class (fun p -> p < f.priority) in
          let own = of_class (fun p -> p = f.priority) in
          let beta =
            Static_priority.class_service ~rate ~higher
              ~blocking:options.Options.sp_blocking
          in
          ( f,
            Float.min b_agg
              (Deviation.vdev_per_flow ~alpha_i:(env f) ~agg:own ~beta) ))
        targets
  | Discipline.Gps ->
      (* Each flow is guaranteed its weighted share whenever it is
         backlogged, so its own vertical deviation from that share
         bounds its queue. *)
      let total_weight =
        List.fold_left (fun acc (f : Flow.t) -> acc +. f.weight) 0. flows
      in
      List.map
        (fun (f : Flow.t) ->
          let share = rate *. f.weight /. total_weight in
          ( f,
            Float.min b_agg
              (Deviation.vdev ~alpha:(env f) ~beta:(beta_rate share)) ))
        targets
  | Discipline.Edf ->
      (* Generic discipline-agnostic split: what the flow can emit
         during its own local delay bound, capped by the whole queue. *)
      List.map
        (fun (f : Flow.t) ->
          let d = local_delay ~flow:f.id in
          let own =
            if Float_ops.is_finite d then Pwl.eval (env f) d else infinity
          in
          (f, Float.min own b_agg))
        targets
