module Hop_tbl = Propagation.Hop_tbl

type t = {
  mutable net : Network.t;
  options : Options.t;
  envs : Propagation.env_table;
  locals : float Hop_tbl.t; (* (flow, server) -> local bound *)
  poisoned : int Hop_tbl.t; (* (flow, server) -> origin server *)
}

let create ?(size_hint = 64) ~options net envs =
  {
    net;
    options;
    envs;
    locals = Hop_tbl.create size_hint;
    poisoned = Hop_tbl.create (size_hint / 16);
  }

let network t = t.net
let options t = t.options
let envs t = t.envs
let set_network t net = t.net <- net

let is_poisoned t ~flow ~server = Hop_tbl.mem t.poisoned (flow, server)

let poison_rest t (f : Flow.t) ~from =
  let rec mark = function
    | s :: rest ->
        if s = from then
          List.iter (fun s' -> Hop_tbl.replace t.poisoned (f.id, s') from) rest
        else mark rest
    | [] -> ()
  in
  mark f.route

(* ---- The per-server arithmetic ---- *)

(* Every bound at a server reads its flows' input envelopes there: the
   delay (horizontal deviation) and the backlog (vertical deviation)
   of the paper's Eq. (1) share the helpers below. *)

let env t sid (f : Flow.t) = Propagation.get t.envs ~flow:f.id ~server:sid
let rate_line rate = Pwl.affine ~y0:0. ~slope:rate

let aggregate t sid flows =
  if not t.options.Options.link_cap then Pwl.sum (List.map (env t sid) flows)
  else begin
    (* Group flows by upstream server; cap each transit group by the
       upstream link rate (output over any window of length I is at
       most C_upstream * I). *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (f : Flow.t) ->
        let key = Flow.prev_hop f sid in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (env t sid f :: cur))
      flows;
    (* Sum the groups in sorted-key order: hash-table iteration order
       is unspecified, and float addition is not associative, so
       folding in table order would make the result depend on it. *)
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
              let rate = (Network.server t.net upstream).Server.rate in
              Pwl.min_pw (rate_line rate) group_env
        in
        Pwl.add acc capped)
      Pwl.zero keys
  end

(* Static priority: [per_class ~higher ~own] once for each class a
   target belongs to, [higher] and [own] the aggregates of the more
   urgent classes and of the class itself, summed over [present] in
   its order; one entry per target, in order. *)
let by_class t sid ~present ~targets per_class =
  let of_class pred =
    Pwl.sum
      (List.filter_map
         (fun (g : Flow.t) ->
           if pred g.priority then Some (env t sid g) else None)
         present)
  in
  let values =
    List.sort_uniq Int.compare
      (List.map (fun (f : Flow.t) -> f.priority) targets)
    |> List.map (fun p ->
           ( p,
             per_class
               ~higher:(of_class (fun q -> q < p))
               ~own:(of_class (fun q -> q = p)) ))
  in
  List.map (fun (f : Flow.t) -> (f, List.assoc f.priority values)) targets

let total_weight present =
  List.fold_left (fun acc (f : Flow.t) -> acc +. f.weight) 0. present

(* Each present flow's local delay, by discipline as the .mli header
   lists them. *)
let local_delays t sid present =
  let srv = Network.server t.net sid in
  let rate = srv.Server.rate in
  match srv.Server.discipline with
  | Discipline.Fifo ->
      let d = Fifo.local_delay ~rate ~agg:(aggregate t sid present) in
      List.map (fun f -> (f, d)) present
  | Discipline.Static_priority ->
      by_class t sid ~present ~targets:present (fun ~higher ~own ->
          Static_priority.local_delay ~rate ~higher ~own
            ~blocking:t.options.Options.sp_blocking)
  | Discipline.Edf ->
      let local_deadline (f : Flow.t) =
        match f.deadline with
        | Some d -> d /. float_of_int (List.length f.route)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "flow %s has no deadline but crosses EDF server %s" f.name
                 srv.Server.name)
      in
      let pairs = List.map (fun f -> (env t sid f, local_deadline f)) present in
      List.map
        (fun f -> (f, Edf.local_delay ~rate pairs ~deadline:(local_deadline f)))
        present
  | Discipline.Gps ->
      let total_weight = total_weight present in
      List.map
        (fun (f : Flow.t) ->
          ( f,
            Gps.local_delay ~rate ~weight:f.weight ~total_weight
              ~alpha:(env t sid f) ))
        present

type step = {
  sid : int;
  present : Flow.t list;
  (* None: a flow present here was poisoned upstream, so every present
     flow is unbounded here and poisons its remaining hops.  Some: each
     flow's local bound and the shifted envelope to install at its next
     hop (None when the bound is infinite or the hop is its last). *)
  bounds : (Flow.t * float * Pwl.t option) list option;
}

let compute t sid =
  let present = Network.flows_at t.net sid in
  if
    present = []
    || Hop_tbl.length t.poisoned > 0
       && List.exists
            (fun (f : Flow.t) -> is_poisoned t ~flow:f.id ~server:sid)
            present
  then { sid; present; bounds = None }
  else
    let next (f : Flow.t) d =
      if d = infinity || Flow.next_hop f sid = None then None
      else Some (Pwl.shift_left (env t sid f) d)
    in
    let bounds =
      local_delays t sid present |> List.map (fun (f, d) -> (f, d, next f d))
    in
    { sid; present; bounds = Some bounds }

let apply t { sid; present; bounds } =
  match bounds with
  | None ->
      List.iter
        (fun (f : Flow.t) ->
          Hop_tbl.replace t.locals (f.id, sid) infinity;
          poison_rest t f ~from:sid)
        present
  | Some bounds ->
      List.iter
        (fun ((f : Flow.t), d, next) ->
          Hop_tbl.replace t.locals (f.id, sid) d;
          if d = infinity then poison_rest t f ~from:sid
          else Option.iter (Propagation.set_next t.envs f ~after:sid) next)
        bounds

let evict t { sid; present; _ } =
  (* each (flow, server) entry is held once, so the table shrinks by
     exactly the number that were resident *)
  let resident = Propagation.length t.envs in
  List.iter
    (fun (f : Flow.t) -> Propagation.remove t.envs ~flow:f.id ~server:sid)
    present;
  resident - Propagation.length t.envs

let run t order =
  (* Marks written by a server about to be re-run are re-derived by its
     step; marks inherited from servers upstream of the list stay. *)
  if Hop_tbl.length t.poisoned > 0 then begin
    let redone = Hashtbl.create 64 in
    List.iter (fun sid -> Hashtbl.replace redone sid ()) order;
    Hop_tbl.fold
      (fun key origin acc ->
        if Hashtbl.mem redone origin then key :: acc else acc)
      t.poisoned []
    |> List.sort (fun (f, s) (f', s') ->
           match Int.compare f f' with 0 -> Int.compare s s' | c -> c)
    |> List.iter (Hop_tbl.remove t.poisoned)
  end;
  List.iter (fun sid -> apply t (compute t sid)) order

let forget_flow t (f : Flow.t) =
  List.iter
    (fun s ->
      Propagation.remove t.envs ~flow:f.id ~server:s;
      Hop_tbl.remove t.locals (f.id, s);
      Hop_tbl.remove t.poisoned (f.id, s))
    f.route

let local_delay t ~flow ~server =
  match Hop_tbl.find_opt t.locals (flow, server) with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "Forward.local_delay: flow %d does not cross server %d"
           flow server)

let flow_delay t id =
  let f = Network.flow t.net id in
  List.fold_left (fun acc s -> acc +. local_delay t ~flow:id ~server:s) 0.
    f.route

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let envelope_at t ~flow ~server =
  if is_poisoned t ~flow ~server then
    invalid_arg "Forward.envelope_at: unbounded envelope (unstable upstream)"
  else Propagation.get t.envs ~flow ~server

let server_delay t sid =
  Network.flows_at t.net sid
  |> List.map (fun (f : Flow.t) -> local_delay t ~flow:f.id ~server:sid)
  |> List.fold_left Float.max 0.

let poisoned_server t sid =
  List.exists
    (fun (f : Flow.t) -> is_poisoned t ~flow:f.id ~server:sid)
    (Network.flows_at t.net sid)

(* The aggregate-curve bounds: [0.] when idle, [infinity] when poisoned. *)
let of_aggregate t sid bound =
  let present = Network.flows_at t.net sid in
  if present = [] then 0.
  else if poisoned_server t sid then infinity
  else
    bound ~rate:(Network.server t.net sid).Server.rate
      ~agg:(aggregate t sid present)

let server_backlog t sid = of_aggregate t sid Fifo.backlog
let server_busy_period t sid = of_aggregate t sid Fifo.busy_period

(* The [targets]' backlog bounds at the server, one per target in
   order, by discipline as [server_flow_backlogs] documents them; the
   cap [b_agg] is the server's aggregate backlog bound. *)
let hop_backlogs t sid ~targets =
  if targets = [] then []
  else if poisoned_server t sid then
    List.map (fun (f : Flow.t) -> (f, infinity)) targets
  else
    let srv = Network.server t.net sid in
    let rate = srv.Server.rate in
    let present = Network.flows_at t.net sid in
    match srv.Server.discipline with
    | Discipline.Fifo ->
        let agg = aggregate t sid present and beta = rate_line rate in
        List.map
          (fun f ->
            (f, Deviation.vdev_per_flow ~alpha_i:(env t sid f) ~agg ~beta))
          targets
    | Discipline.Static_priority ->
        let b_agg = server_backlog t sid in
        by_class t sid ~present ~targets (fun ~higher ~own ->
            ( own,
              Static_priority.class_service ~rate ~higher
                ~blocking:t.options.Options.sp_blocking ))
        |> List.map (fun (f, (own, beta)) ->
               ( f,
                 Float.min b_agg
                   (Deviation.vdev_per_flow ~alpha_i:(env t sid f) ~agg:own
                      ~beta) ))
    | Discipline.Gps ->
        let b_agg = server_backlog t sid
        and total_weight = total_weight present in
        List.map
          (fun (f : Flow.t) ->
            let share = rate *. f.weight /. total_weight in
            ( f,
              Float.min b_agg
                (Deviation.vdev ~alpha:(env t sid f) ~beta:(rate_line share))
            ))
          targets
    | Discipline.Edf ->
        let b_agg = server_backlog t sid in
        List.map
          (fun (f : Flow.t) ->
            let d = local_delay t ~flow:f.id ~server:sid in
            let own =
              if Float_ops.is_finite d then Pwl.eval (env t sid f) d
              else infinity
            in
            (f, Float.min own b_agg))
          targets

let server_flow_backlogs t sid =
  hop_backlogs t sid ~targets:(Network.flows_at t.net sid)
  |> List.map (fun ((f : Flow.t), b) -> (f.id, b))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let local_backlog t ~flow ~server =
  match
    List.find_opt
      (fun (f : Flow.t) -> f.id = flow)
      (Network.flows_at t.net server)
  with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Forward.local_backlog: flow %d does not cross server %d" flow
           server)
  | Some f -> (
      match hop_backlogs t server ~targets:[ f ] with
      | [ (_, b) ] -> b
      | _ -> assert false)

let flow_backlog t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> Float.max acc (local_backlog t ~flow:id ~server:s))
    0. f.route
