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
      else
        let env = Propagation.get t.envs ~flow:f.id ~server:sid in
        Some (Pwl.shift_left env d)
    in
    let bounds =
      Local_bounds.at_server ~options:t.options t.net t.envs ~server:sid
      |> List.map (fun (f, d) -> (f, d, next f d))
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
      ~agg:
        (Propagation.aggregate_input ~options:t.options t.net t.envs
           ~server:sid ~flows:present)

let server_backlog t sid = of_aggregate t sid Fifo.backlog
let server_busy_period t sid = of_aggregate t sid Fifo.busy_period

let hop_backlogs t sid ~targets =
  let present = Network.flows_at t.net sid in
  if targets = [] then []
  else if poisoned_server t sid then
    List.map (fun (f : Flow.t) -> (f, infinity)) targets
  else
    Backlog.per_flow ~options:t.options t.net t.envs ~server:sid
      ~flows:present ~targets
      ~local_delay:(fun ~flow -> local_delay t ~flow ~server:sid)

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
