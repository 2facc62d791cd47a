(* Incremental (delta) re-analysis for the serve subsystem.

   The state is a Forward pass — envelope table, per-(flow, server)
   local bounds, poison marks tagged with the server that wrote them —
   plus the set of flows failing a feasibility check.  This module is
   the pass's cone driver: after a change it re-runs Forward.run over
   the change's cone only, which drops exactly the poison marks whose
   origin is being re-analyzed and keeps those inherited from untouched
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
   - per-server recomputation is Decomposed's own Forward step, fed
     inputs that are either recomputed in topological order or
     physically unchanged.

   Rollback of a rejected admit is a teardown of the candidate over the
   same cone: recomputing the old flow population from unchanged
   outside-cone inputs reproduces the previous state bit-for-bit.

   An operation's cost scales with the cone, not the network, because
   nothing it does visits servers outside the cone:
   Network.add_flow/remove_flow update the index entries of the route's
   servers only, the cone walk and its topological order read the
   successor lists of cone servers, and only the flows at cone servers
   have their feasibility re-checked.  Three whole-population steps
   remain, all small next to one server's recompute: inside Network,
   the flow list's append/filter and the copies of the two slot arrays
   (flows per server and successors), both pointer copying; and the
   scan of the poison marks (skipped while every server is stable). *)

let c_cone = Metrics.counter "serve.delta.cone_nodes"
let c_reused = Metrics.counter "serve.delta.reused_nodes"
let c_accepted = Metrics.counter "serve.admit.accepted"
let c_rejected = Metrics.counter "serve.admit.rejected"
let c_teardown = Metrics.counter "serve.teardown"

type t = {
  fw : Forward.t;
  violated : (int, Admission.reject_reason) Hashtbl.t;
      (* flows failing a feasibility check, with the reason *)
  mutable admits : int;
  mutable rejects : int;
  mutable teardowns : int;
  mutable cone_total : int;
  mutable reused_total : int;
}

let network t = Forward.network t.fw
let flow_delay t = Forward.flow_delay t.fw
let all_flow_delays t = Forward.all_flow_delays t.fw
let server_backlog t = Forward.server_backlog t.fw
let server_flow_backlogs t = Forward.server_flow_backlogs t.fw
let local_backlog t = Forward.local_backlog t.fw
let flow_backlog t = Forward.flow_backlog t.fw

let query t id =
  match Network.flow_opt (network t) id with
  | None -> None
  | Some f -> Some (f, flow_delay t id)

(* Forward closure of [seeds] in the routing DAG of [net]. *)
let cone_of net seeds =
  let seen = Hashtbl.create 64 in
  let rec visit acc sid =
    if Hashtbl.mem seen sid then acc
    else begin
      Hashtbl.add seen sid ();
      List.fold_left visit (sid :: acc) (Network.successors net sid)
    end
  in
  List.fold_left visit [] seeds

(* Re-run the pass over [cone], a topological order of a cone.  Bounds
   can only have changed for flows that cross the cone: the ones at
   its servers.  Refresh each once, with the rule Admission uses. *)
let recompute t cone =
  Forward.run t.fw cone;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun sid ->
      List.iter
        (fun (f : Flow.t) ->
          if not (Hashtbl.mem seen f.id) then begin
            Hashtbl.add seen f.id ();
            match
              Admission.violation f
                ~bound:(fun () -> flow_delay t f.id)
                ~backlog:(fun () server -> local_backlog t ~flow:f.id ~server)
            with
            | None -> Hashtbl.remove t.violated f.id
            | Some reason -> Hashtbl.replace t.violated f.id reason
          end)
        (Network.flows_at (network t) sid))
    cone

let create ?(options = Options.default) ~servers ~flows () =
  let net = Network.make ~servers ~flows in
  let t =
    {
      fw = Forward.create ~options net (Propagation.create net);
      violated = Hashtbl.create 8;
      admits = 0;
      rejects = 0;
      teardowns = 0;
      cone_total = 0;
      reused_total = 0;
    }
  in
  recompute t (Network.topological_order net);
  t

type op_stats = { cone_nodes : int; reused_nodes : int }

type admit_result =
  | Admitted of { bound : float; stats : op_stats }
  | Rejected of { reason : Admission.reject_reason; stats : op_stats }

let note t ~cone_nodes =
  let reused_nodes = Network.size (network t) - cone_nodes in
  Metrics.add c_cone cone_nodes;
  Metrics.add c_reused reused_nodes;
  t.cone_total <- t.cone_total + cone_nodes;
  t.reused_total <- t.reused_total + reused_nodes;
  { cone_nodes; reused_nodes }

let reject t reason stats =
  t.rejects <- t.rejects + 1;
  Metrics.incr c_rejected;
  Rejected { reason; stats }

(* Drop every per-hop trace of a flow (teardown, or admit rollback). *)
let forget_flow t (f : Flow.t) =
  Forward.forget_flow t.fw f;
  Hashtbl.remove t.violated f.id

(* Lowest-id violated flow, matching Admission.first_violation.  The
   stored reason is current: [recompute] re-derives it whenever the
   flow's route touches a recomputed cone, and outside-cone state
   cannot move. *)
let current_violation t =
  Hashtbl.fold (fun id reason acc -> (id, reason) :: acc) t.violated []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> function
  | [] -> None
  | (_, reason) :: _ -> Some reason

let admit t (cand : Flow.t) =
  match cand.deadline with
  | None -> reject t Admission.No_deadline (note t ~cone_nodes:0)
  | Some _ -> (
      let old_net = network t in
      (* Raises Invalid_argument on a duplicate id or unknown server
         before any state is touched. *)
      let new_net = Network.add_flow old_net cand in
      (* Any cycle the candidate creates passes through its route
         servers, which are all cone seeds, so checking the cone
         suffices. *)
      match
        Network.topological_order ~servers:(cone_of new_net cand.route) new_net
      with
      | exception Network.Cyclic ->
          (* The cycle check precedes all mutation: nothing to undo. *)
          reject t Admission.Cyclic_route (note t ~cone_nodes:0)
      | cone -> (
          Forward.set_network t.fw new_net;
          Propagation.install_source (Forward.envs t.fw) cand;
          recompute t cone;
          let stats = note t ~cone_nodes:(List.length cone) in
          match current_violation t with
          | None ->
              t.admits <- t.admits + 1;
              Metrics.incr c_accepted;
              Admitted { bound = flow_delay t cand.id; stats }
          | Some reason ->
              (* Roll back: tear the candidate out over the same cone,
                 in the same order.  Outside-cone state never moved, so
                 this reproduces the pre-admit state bit-for-bit. *)
              forget_flow t cand;
              Forward.set_network t.fw old_net;
              recompute t cone;
              reject t reason stats))

let teardown t id =
  match Network.flow_opt (network t) id with
  | None -> Error `Unknown_flow
  | Some f ->
      forget_flow t f;
      let net = Network.remove_flow (network t) id in
      Forward.set_network t.fw net;
      let cone = Network.topological_order ~servers:(cone_of net f.route) net in
      recompute t cone;
      t.teardowns <- t.teardowns + 1;
      Metrics.incr c_teardown;
      Ok (note t ~cone_nodes:(List.length cone))

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
  let net = network t in
  {
    servers = Network.size net;
    flows = List.length (Network.flows net);
    admitted_rate = Propagation.total_rate (Network.flows net);
    admits = t.admits;
    rejects = t.rejects;
    teardowns = t.teardowns;
    cone_nodes = t.cone_total;
    reused_nodes = t.reused_total;
  }
