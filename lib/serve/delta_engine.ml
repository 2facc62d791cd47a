(* Incremental (delta) re-analysis for the serve subsystem.

   The state mirrors Decomposed.analyze_raw exactly — envelope table,
   per-(flow, server) local bounds, poison marks past unstable servers —
   with one addition: each poison mark remembers the server that
   originated it, so a cone recompute can drop exactly the marks whose
   origin is being re-analyzed and keep those inherited from untouched
   upstream state.

   The cone of a change is the forward closure of the changed flow's
   route in the routing DAG.  Three facts make cone recomputation
   exact (not approximate):
   - an envelope at (flow, server) is written by the flow's previous
     hop, so every table entry a change can affect lives at a server
     inside the forward closure;
   - the closure is computed on the post-change edge set, whose new (or
     removed) edges connect route servers that are all seeds, so the
     same closure also covers the pre-change dependencies;
   - per-server recomputation is the same deterministic code path as
     the batch analysis, fed inputs that are either recomputed in
     topological order or physically unchanged.

   Rollback of a rejected admit is a teardown of the candidate over the
   same cone: recomputing the old flow population from unchanged
   outside-cone inputs reproduces the previous state bit-for-bit.

   An operation's cost scales with the cone, not the network, because
   nothing it does visits servers outside the cone:
   Network.add_flow/remove_flow update the index entries of the route's
   servers only, the cone walk and its topological order read the
   successor lists of cone servers, and only the flows at cone servers
   have their feasibility re-checked.  Two whole-population steps
   remain, both small next to one server's recompute: the flow list's
   append/filter inside Network (pointer copying) and the scan of the
   poison marks (empty while every server is stable). *)

let c_cone = Metrics.counter "serve.delta.cone_nodes"
let c_reused = Metrics.counter "serve.delta.reused_nodes"
let c_accepted = Metrics.counter "serve.admit.accepted"
let c_rejected = Metrics.counter "serve.admit.rejected"
let c_teardown = Metrics.counter "serve.teardown"

type t = {
  options : Options.t;
  mutable net : Network.t;
  envs : Propagation.env_table;
  locals : (int * int, float) Hashtbl.t;    (* (flow, server) -> local bound *)
  poisoned : (int * int, int) Hashtbl.t;    (* (flow, server) -> origin server *)
  violated : (int, Admission.reject_reason) Hashtbl.t;
      (* flows failing a feasibility check, with the reason *)
  mutable admits : int;
  mutable rejects : int;
  mutable teardowns : int;
  mutable cone_total : int;
  mutable reused_total : int;
}

let network t = t.net

let flow_delay t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> acc +. Hashtbl.find t.locals (id, s))
    0. f.Flow.route

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let query t id =
  match Network.flow_opt t.net id with
  | None -> None
  | Some f -> Some (f, flow_delay t id)

(* Backlog accessors: the same shared [Backlog] code path as
   [Decomposed], over this engine's incrementally maintained envelope
   table, so delta backlogs are bit-identical to a from-scratch
   re-analysis (tested alongside the delay invariant). *)
let poisoned_server t sid =
  List.exists
    (fun (f : Flow.t) -> Hashtbl.mem t.poisoned (f.id, sid))
    (Network.flows_at t.net sid)

let server_backlog t sid =
  let present = Network.flows_at t.net sid in
  if present = [] then 0.
  else if poisoned_server t sid then infinity
  else
    Backlog.server ~options:t.options t.net t.envs ~server:sid ~flows:present

let local_backlog t ~flow ~server =
  let present = Network.flows_at t.net server in
  let target =
    match List.find_opt (fun (f : Flow.t) -> f.id = flow) present with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf
             "Delta_engine.local_backlog: flow %d does not cross server %d"
             flow server)
  in
  if poisoned_server t server then infinity
  else
    match
      Backlog.per_flow ~options:t.options t.net t.envs ~server ~flows:present
        ~targets:[ target ]
        ~local_delay:(fun ~flow -> Hashtbl.find t.locals (flow, server))
    with
    | [ (_, b) ] -> b
    | _ -> assert false

let server_flow_backlogs t sid =
  let present = Network.flows_at t.net sid in
  if present = [] then []
  else if poisoned_server t sid then
    List.map (fun (f : Flow.t) -> (f.id, infinity)) present |> List.sort compare
  else
    Backlog.per_flow ~options:t.options t.net t.envs ~server:sid ~flows:present
      ~targets:present
      ~local_delay:(fun ~flow -> Hashtbl.find t.locals (flow, sid))
    |> List.map (fun ((f : Flow.t), b) -> (f.id, b))
    |> List.sort compare

let flow_backlog t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc s -> Float.max acc (local_backlog t ~flow:id ~server:s))
    0. f.Flow.route

(* Mirrors [Admission.flow_violation]: the deadline check first, then —
   only for flows carrying a buffer budget — per-hop backlogs in route
   order.  Flows without budgets cost nothing beyond the old deadline
   check. *)
let refresh_violation t (f : Flow.t) =
  let deadline_v =
    match f.deadline with
    | None -> None
    | Some dl ->
        let b = flow_delay t f.id in
        if Admission.deadline_ok ~bound:b ~deadline:dl then None
        else
          Some
            (Admission.Deadline_violated
               { flow = f.id; bound = b; deadline = dl })
  in
  let v =
    match deadline_v with
    | Some _ -> deadline_v
    | None -> (
        match f.buffer with
        | None -> None
        | Some budget ->
            List.find_map
              (fun s ->
                let b = local_backlog t ~flow:f.id ~server:s in
                if Admission.buffer_ok ~backlog:b ~buffer:budget then None
                else
                  Some
                    (Admission.Buffer_violated
                       { flow = f.id; server = s; backlog = b; buffer = budget }))
              f.route)
  in
  match v with
  | None -> Hashtbl.remove t.violated f.id
  | Some reason -> Hashtbl.replace t.violated f.id reason

(* Forward closure of [seeds] in the routing DAG of [net]. *)
let cone_of net ~seeds =
  let cone = Hashtbl.create 64 in
  let rec visit sid =
    if not (Hashtbl.mem cone sid) then begin
      Hashtbl.add cone sid ();
      List.iter visit (Network.successors net sid)
    end
  in
  List.iter visit seeds;
  cone

(* Topological order of the cone subgraph of [net] (Kahn, ties by
   ascending id).  Only in-cone predecessors count: inputs from outside
   the cone are already final.  Raises Network.Cyclic when the subgraph
   has a cycle — and any cycle a new flow can create passes through its
   route servers, which are all cone seeds, so checking the cone
   suffices.  Like [cone_of], it reads only the successor lists of cone
   servers, which the network keeps indexed. *)
let cone_topo_order net cone =
  let succs = Network.successors net in
  let indeg = Hashtbl.create 64 in
  Hashtbl.iter (fun sid () -> Hashtbl.replace indeg sid 0) cone;
  Hashtbl.iter
    (fun sid () ->
      List.iter
        (fun b ->
          if Hashtbl.mem cone b then
            Hashtbl.replace indeg b (Hashtbl.find indeg b + 1))
        (succs sid))
    cone;
  let ready =
    Hashtbl.fold
      (fun sid () acc -> if Hashtbl.find indeg sid = 0 then sid :: acc else acc)
      cone []
    |> List.sort compare
  in
  let rec kahn order = function
    | [] -> List.rev order
    | sid :: rest ->
        let next =
          List.fold_left
            (fun acc b ->
              if Hashtbl.mem cone b then begin
                let d = Hashtbl.find indeg b - 1 in
                Hashtbl.replace indeg b d;
                if d = 0 then b :: acc else acc
              end
              else acc)
            [] (succs sid)
        in
        kahn (sid :: order) (List.sort compare next @ rest)
  in
  let order = kahn [] ready in
  if List.length order <> Hashtbl.length cone then raise Network.Cyclic
  else order

(* Re-run the topological sweep over [cone] in [order], a
   [cone_topo_order] of it. *)
let recompute t ~cone order =
  (* Poison marks originating inside the cone are about to be
     re-derived; marks inherited from untouched upstream servers stay. *)
  Hashtbl.fold
    (fun key origin acc -> if Hashtbl.mem cone origin then key :: acc else acc)
    t.poisoned []
  |> List.sort compare
  |> List.iter (fun key -> Hashtbl.remove t.poisoned key);
  let poison_rest (f : Flow.t) ~from =
    let rec mark = function
      | s :: rest ->
          if s = from then
            List.iter (fun s' -> Hashtbl.replace t.poisoned (f.id, s') from) rest
          else mark rest
      | [] -> ()
    in
    mark f.route
  in
  List.iter
    (fun sid ->
      let present = Network.flows_at t.net sid in
      if present <> [] then begin
        let unbounded =
          List.exists
            (fun (f : Flow.t) -> Hashtbl.mem t.poisoned (f.id, sid))
            present
        in
        if unbounded then
          List.iter
            (fun (f : Flow.t) ->
              Hashtbl.replace t.locals (f.id, sid) infinity;
              poison_rest f ~from:sid)
            present
        else begin
          let with_envs =
            List.map
              (fun (f : Flow.t) ->
                (f, Propagation.get t.envs ~flow:f.id ~server:sid))
              present
          in
          let delays =
            Local_bounds.at_server ~options:t.options t.net t.envs ~server:sid
          in
          List.iter2
            (fun ((f : Flow.t), env) ((f' : Flow.t), d) ->
              assert (f.id = f'.id);
              Hashtbl.replace t.locals (f.id, sid) d;
              if Float_ops.eq_exact d infinity then poison_rest f ~from:sid
              else
                Propagation.set_next t.envs f ~after:sid
                  (Options.compact_envelope t.options (Pwl.shift_left env d)))
            with_envs delays
        end
      end)
    order;
  (* Bounds can only have changed for flows that cross the cone: the
     ones at its servers.  Refresh each once. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun sid ->
      List.iter
        (fun (f : Flow.t) ->
          if not (Hashtbl.mem seen f.id) then begin
            Hashtbl.add seen f.id ();
            refresh_violation t f
          end)
        (Network.flows_at t.net sid))
    order

let create ?(options = Options.default) ~servers ~flows () =
  let net = Network.make ~servers ~flows in
  let t =
    {
      options;
      net;
      envs = Propagation.create net;
      locals = Hashtbl.create 64;
      poisoned = Hashtbl.create 8;
      violated = Hashtbl.create 8;
      admits = 0;
      rejects = 0;
      teardowns = 0;
      cone_total = 0;
      reused_total = 0;
    }
  in
  let cone = Hashtbl.create 64 in
  List.iter (fun (s : Server.t) -> Hashtbl.replace cone s.id ()) servers;
  recompute t ~cone (cone_topo_order net cone);
  t

type op_stats = { cone_nodes : int; reused_nodes : int }

type admit_result =
  | Admitted of { bound : float; stats : op_stats }
  | Rejected of { reason : Admission.reject_reason; stats : op_stats }

(* An operation that touched no server state (no-deadline or cyclic
   rejection) still shows up in the cumulative accounting: it reused
   everything. *)
let note_skip t =
  let reused_nodes = Network.size t.net in
  Metrics.add c_reused reused_nodes;
  t.reused_total <- t.reused_total + reused_nodes;
  { cone_nodes = 0; reused_nodes }

let note_delta t cone =
  let cone_nodes = Hashtbl.length cone in
  let reused_nodes = Network.size t.net - cone_nodes in
  Metrics.add c_cone cone_nodes;
  Metrics.add c_reused reused_nodes;
  t.cone_total <- t.cone_total + cone_nodes;
  t.reused_total <- t.reused_total + reused_nodes;
  { cone_nodes; reused_nodes }

(* Drop every per-hop trace of a flow (teardown, or admit rollback). *)
let forget_flow t (f : Flow.t) =
  List.iter
    (fun s ->
      Propagation.remove t.envs ~flow:f.id ~server:s;
      Hashtbl.remove t.locals (f.id, s);
      Hashtbl.remove t.poisoned (f.id, s))
    f.route;
  Hashtbl.remove t.violated f.id

(* Lowest-id violated flow, matching Admission.first_violation.  The
   stored reason is current: [refresh_violation] re-derives it whenever
   the flow's route touches a recomputed cone, and outside-cone state
   cannot move. *)
let current_violation t =
  Hashtbl.fold (fun id reason acc -> (id, reason) :: acc) t.violated []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> function
  | [] -> None
  | (_, reason) :: _ -> Some reason

let admit t (cand : Flow.t) =
  match cand.deadline with
  | None ->
      t.rejects <- t.rejects + 1;
      Metrics.incr c_rejected;
      Rejected { reason = Admission.No_deadline; stats = note_skip t }
  | Some _ -> (
      let old_net = t.net in
      (* Raises Invalid_argument on a duplicate id or unknown server
         before any state is touched. *)
      let new_net = Network.add_flow old_net cand in
      let cone = cone_of new_net ~seeds:cand.route in
      match cone_topo_order new_net cone with
      | exception Network.Cyclic ->
          (* The cycle check precedes all mutation: nothing to undo. *)
          t.rejects <- t.rejects + 1;
          Metrics.incr c_rejected;
          Rejected { reason = Admission.Cyclic_route; stats = note_skip t }
      | order ->
          t.net <- new_net;
          Propagation.install_source t.envs cand;
          recompute t ~cone order;
          let stats = note_delta t cone in
          if Hashtbl.length t.violated = 0 then begin
            t.admits <- t.admits + 1;
            Metrics.incr c_accepted;
            Admitted { bound = flow_delay t cand.id; stats }
          end
          else begin
            let reason =
              match current_violation t with
              | Some r -> r
              | None -> assert false
            in
            (* Roll back: tear the candidate out over the same cone, in
               the same order.  Outside-cone state never moved, so this
               reproduces the pre-admit state bit-for-bit. *)
            forget_flow t cand;
            t.net <- old_net;
            recompute t ~cone order;
            t.rejects <- t.rejects + 1;
            Metrics.incr c_rejected;
            Rejected { reason; stats }
          end)

let teardown t id =
  match Network.flow_opt t.net id with
  | None -> Error `Unknown_flow
  | Some f ->
      forget_flow t f;
      t.net <- Network.remove_flow t.net id;
      let cone = cone_of t.net ~seeds:f.route in
      recompute t ~cone (cone_topo_order t.net cone);
      t.teardowns <- t.teardowns + 1;
      Metrics.incr c_teardown;
      Ok (note_delta t cone)

type stats = {
  servers : int;
  flows : int;
  admitted_rate : float;
  admits : int;
  rejects : int;
  teardowns : int;
  cone_nodes : int;
  reused_nodes : int;
}

let stats t =
  {
    servers = Network.size t.net;
    flows = List.length (Network.flows t.net);
    admitted_rate = Propagation.total_rate (Network.flows t.net);
    admits = t.admits;
    rejects = t.rejects;
    teardowns = t.teardowns;
    cone_nodes = t.cone_total;
    reused_nodes = t.reused_total;
  }
