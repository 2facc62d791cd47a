type t = {
  net : Network.t;
  locals : (int * int, float) Hashtbl.t;
  verified : (int, bool) Hashtbl.t; (* server -> final feasibility *)
}

let require_edf net =
  List.iter
    (fun (s : Server.t) ->
      if s.discipline <> Discipline.Edf then
        invalid_arg "Edf_allocation: every server must be EDF")
    (Network.servers net);
  List.iter
    (fun (f : Flow.t) ->
      if f.deadline = None then
        invalid_arg
          (Printf.sprintf "Edf_allocation: flow %s has no deadline" f.name))
    (Network.flows net)

let deadline (f : Flow.t) = Option.get f.deadline

(* Envelope at a hop, or None when a diverged upstream assignment never
   produced one (treated as unbounded: the server cannot verify). *)
let env_opt envs ~flow ~server =
  match Propagation.get envs ~flow ~server with
  | env -> Some env
  | exception Not_found -> None

let equal_share f = deadline f /. float_of_int (List.length f.route)

(* Allocation/propagation rounds, and the bisection tolerance of each
   minimal local deadline. *)
let max_iter = 50
let tol = 1e-6

(* Minimal local deadline for one flow at one server, holding the other
   flows' assignments fixed (feasibility is monotone in the deadline). *)
let minimal_local ~rate ~own_env ~others =
  let feasible d = Edf.feasible ~rate ((own_env, d) :: others) in
  let rec widen hi =
    if feasible hi then hi else if hi > 1e6 then infinity else widen (2. *. hi)
  in
  let hi = widen 1. in
  if hi = infinity then infinity
  else
    let rec bisect lo hi =
      if hi -. lo <= tol then hi
      else
        let mid = (lo +. hi) /. 2. in
        if feasible mid then bisect lo mid else bisect mid hi
    in
    bisect 0. hi

(* Propagate envelopes under a given assignment (sweep in topological
   order); infinite local deadlines poison nothing here — downstream
   verification fails anyway. *)
let propagate net order locals =
  let envs = Propagation.create net in
  List.iter
    (fun sid ->
      List.iter
        (fun (f : Flow.t) ->
          match env_opt envs ~flow:f.id ~server:sid with
          | Some env ->
              let d = Hashtbl.find locals (f.id, sid) in
              if Float.is_finite d then
                Propagation.set_next envs f ~after:sid (Pwl.shift_left env d)
          | None -> ())
        (Network.flows_at net sid))
    order;
  envs

let verify net order locals =
  let envs = propagate net order locals in
  let verified = Hashtbl.create 16 in
  List.iter
    (fun sid ->
      let rate = (Network.server net sid).Server.rate in
      let present = Network.flows_at net sid in
      let assignment =
        List.map
          (fun (f : Flow.t) ->
            ( env_opt envs ~flow:f.id ~server:sid,
              Hashtbl.find locals (f.id, sid) ))
          present
      in
      let ok =
        present = []
        || (List.for_all
              (fun (env, d) -> env <> None && Float.is_finite d)
              assignment
           && Edf.feasible ~rate
                (List.map
                   (fun (env, d) -> (Option.get env, d))
                   assignment))
      in
      Hashtbl.replace verified sid ok)
    order;
  verified

let local_deadline t ~flow ~server = Hashtbl.find t.locals (flow, server)

let flow_bound t id =
  let f = Network.flow t.net id in
  List.fold_left
    (fun acc sid -> acc +. local_deadline t ~flow:id ~server:sid)
    0. f.route

let flow_feasible t id =
  let f = Network.flow t.net id in
  let bound = flow_bound t id in
  Float.is_finite bound
  && bound <= deadline f +. Float_ops.eps
  && List.for_all (fun sid -> Hashtbl.find t.verified sid) f.route

let all_feasible t =
  List.for_all (fun (f : Flow.t) -> flow_feasible t f.id) (Network.flows t.net)

let allocate net =
  require_edf net;
  let order = Network.topological_order net in
  let flows = Network.flows net in
  (* Start from the equal split. *)
  let equal = Hashtbl.create 64 in
  List.iter
    (fun (f : Flow.t) ->
      List.iter
        (fun sid -> Hashtbl.replace equal (f.id, sid) (equal_share f))
        f.route)
    flows;
  let locals = Hashtbl.copy equal in
  (* Iterate: per-flow minimal locals (others fixed), then hand each
     flow's slack back proportionally to its per-hop need. *)
  for _ = 1 to max_iter do
    let envs = propagate net order locals in
    let minimal = Hashtbl.create 64 in
    List.iter
      (fun sid ->
        let rate = (Network.server net sid).Server.rate in
        let present = Network.flows_at net sid in
        List.iter
          (fun (f : Flow.t) ->
            match env_opt envs ~flow:f.id ~server:sid with
            | None -> Hashtbl.replace minimal (f.id, sid) infinity
            | Some own_env ->
                let others =
                  (* flows whose assignment diverged (infinite local or
                     missing envelope) contribute no demand here; the
                     final verification pass rejects such states *)
                  List.filter_map
                    (fun (g : Flow.t) ->
                      if g.id = f.id then None
                      else
                        let d = Hashtbl.find locals (g.id, sid) in
                        match env_opt envs ~flow:g.id ~server:sid with
                        | Some env when Float.is_finite d -> Some (env, d)
                        | _ -> None)
                    present
                in
                Hashtbl.replace minimal (f.id, sid)
                  (minimal_local ~rate ~own_env ~others))
          present)
      order;
    List.iter
      (fun (f : Flow.t) ->
        let mins = List.map (fun sid -> Hashtbl.find minimal (f.id, sid)) f.route in
        let total = List.fold_left ( +. ) 0. mins in
        if Float.is_finite total && total > 0. then begin
          let slack = Float.max 0. (deadline f -. total) in
          List.iter2
            (fun sid m ->
              Hashtbl.replace locals (f.id, sid)
                (m +. (slack *. m /. total)))
            f.route mins
        end
        else if Float.is_finite total then
          (* all-zero minimal needs: fall back to the equal split *)
          List.iter
            (fun sid -> Hashtbl.replace locals (f.id, sid) (equal_share f))
            f.route
        else
          List.iter
            (fun sid ->
              Hashtbl.replace locals (f.id, sid)
                (Hashtbl.find minimal (f.id, sid)))
            f.route)
      flows
  done;
  let adaptive = { net; locals; verified = verify net order locals } in
  if all_feasible adaptive then adaptive
  else begin
    (* Never worse than the naive policy: keep the equal split when it
       verifies and the adaptive allocation does not. *)
    let split = { net; locals = equal; verified = verify net order equal } in
    if all_feasible split then split else adaptive
  end

let equal_split_feasible net id =
  let f = Network.flow net id in
  match Decomposed.flow_delay (Decomposed.analyze net) id with
  | d -> Float.is_finite d && d <= deadline f +. Float_ops.eps
  | exception Invalid_argument _ -> false
