let aggregate ~options net ~env ~server flows =
  if not options.Options.link_cap then Pwl.sum (List.map env flows)
  else begin
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (f : Flow.t) ->
        let key = Flow.prev_hop f server in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (env f :: cur))
      flows;
    let keys =
      Hashtbl.fold (fun key _ acc -> key :: acc) groups []
      |> List.sort_uniq (Option.compare Int.compare)
    in
    List.fold_left
      (fun acc key ->
        let group_env = Pwl.sum (Hashtbl.find groups key) in
        let capped =
          match key with
          | None -> group_env
          | Some upstream ->
              let rate = (Network.server net upstream).Server.rate in
              Pwl.min_pw (Pwl.affine ~y0:0. ~slope:rate) group_env
        in
        Pwl.add acc capped)
      Pwl.zero keys
  end

(* The aggregate of the classes [pred] selects, summed in the server's
   flow order. *)
let of_class ~env present pred =
  Pwl.sum
    (List.filter_map
       (fun (g : Flow.t) -> if pred g.priority then Some (env g) else None)
       present)

let local_delay ~options net ~env ~server (f : Flow.t) =
  let srv = Network.server net server in
  let present = Network.flows_at net server in
  let rate = srv.Server.rate in
  match srv.Server.discipline with
  | Discipline.Fifo ->
      Fifo.local_delay ~rate ~agg:(aggregate ~options net ~env ~server present)
  | Discipline.Static_priority ->
      Static_priority.local_delay ~rate
        ~higher:(of_class ~env present (fun p -> p < f.priority))
        ~own:(of_class ~env present (fun p -> p = f.priority))
        ~blocking:options.Options.sp_blocking
  | Discipline.Edf ->
      let local_deadline (g : Flow.t) =
        match g.deadline with
        | Some d -> d /. float_of_int (List.length g.route)
        | None -> invalid_arg "Per_flow_reference: deadline-less flow at EDF"
      in
      let pairs = List.map (fun g -> (env g, local_deadline g)) present in
      Edf.local_delay ~rate pairs ~deadline:(local_deadline f)
  | Discipline.Gps ->
      let total_weight =
        List.fold_left (fun acc (g : Flow.t) -> acc +. g.weight) 0. present
      in
      Gps.local_delay ~rate ~weight:f.weight ~total_weight ~alpha:(env f)

let local_backlog ~options net ~env ~server ~local_delay (f : Flow.t) =
  let srv = Network.server net server in
  let present = Network.flows_at net server in
  let rate = srv.Server.rate in
  let beta_rate rate = Pwl.affine ~y0:0. ~slope:rate in
  let agg = aggregate ~options net ~env ~server present in
  let b_agg = Fifo.backlog ~rate ~agg in
  match srv.Server.discipline with
  | Discipline.Fifo ->
      Deviation.vdev_per_flow ~alpha_i:(env f) ~agg ~beta:(beta_rate rate)
  | Discipline.Static_priority ->
      let beta =
        Static_priority.class_service ~rate
          ~higher:(of_class ~env present (fun p -> p < f.priority))
          ~blocking:options.Options.sp_blocking
      in
      Float.min b_agg
        (Deviation.vdev_per_flow ~alpha_i:(env f)
           ~agg:(of_class ~env present (fun p -> p = f.priority))
           ~beta)
  | Discipline.Gps ->
      let total_weight =
        List.fold_left (fun acc (g : Flow.t) -> acc +. g.weight) 0. present
      in
      let share = rate *. f.weight /. total_weight in
      Float.min b_agg (Deviation.vdev ~alpha:(env f) ~beta:(beta_rate share))
  | Discipline.Edf ->
      let own =
        if Float_ops.is_finite local_delay then Pwl.eval (env f) local_delay
        else infinity
      in
      Float.min own b_agg
