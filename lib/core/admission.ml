type reject_reason =
  | No_deadline
  | Cyclic_route
  | Deadline_violated of { flow : int; bound : float; deadline : float }
  | Buffer_violated of {
      flow : int;
      server : int;
      backlog : float;
      buffer : float;
    }

type verdict =
  | Accepted of { bounds : (int * float) list; analysis : Engine.analysis }
  | Rejected of reject_reason

type outcome = {
  admitted : Flow.t list;
  rejected : Flow.t list;
  rejections : (Flow.t * reject_reason) list;
  admitted_rate : float;
  analysis : Engine.analysis option;
}

let deadline_ok ~bound ~deadline =
  Float.is_finite bound && bound <= deadline +. Float_ops.eps

let buffer_ok ~backlog ~buffer =
  Float.is_finite backlog && backlog <= buffer +. Float_ops.eps

let violation ~bound ~backlog (f : Flow.t) =
  let late =
    match f.deadline with
    | None -> None
    | Some deadline ->
        let bound = bound () in
        if deadline_ok ~bound ~deadline then None
        else Some (Deadline_violated { flow = f.id; bound; deadline })
  in
  match (late, f.buffer) with
  | Some _, _ | None, None -> late
  | None, Some buffer ->
      let backlog = backlog () in
      List.find_map
        (fun server ->
          let b = backlog server in
          if buffer_ok ~backlog:b ~buffer then None
          else
            Some (Buffer_violated { flow = f.id; server; backlog = b; buffer }))
        f.route

let flow_violation analysis bounds (f : Flow.t) =
  violation f
    ~bound:(fun () ->
      Option.value ~default:infinity (List.assoc_opt f.id bounds))
    ~backlog:(fun () server -> Engine.local_backlog analysis ~flow:f.id ~server)

(* The violation a verdict reports: the lowest-id flow that fails a
   check (a flow with no bound in the list counts as unbounded), its
   deadline before its buffer.  Keyed by id, not list position, so the
   batch loop and the delta engine — which discovers violations in a
   different order — name the same culprit. *)
let first_violation analysis bounds flows =
  flows
  |> List.sort (fun (a : Flow.t) (b : Flow.t) -> Int.compare a.id b.id)
  |> List.find_map (flow_violation analysis bounds)

let bounds_for ?options ?strategy ~servers flows method_ =
  Engine.all_flow_delays
    (Engine.analyze ?options ?strategy (Network.make ~servers ~flows) method_)

let decide_one ?options ?strategy ~servers ~flows ~candidate ~method_ () =
  match (candidate : Flow.t).deadline with
  | None -> Rejected No_deadline
  | Some _ -> (
      let all = flows @ [ candidate ] in
      let net = Network.make ~servers ~flows:all in
      match Engine.analyze ?options ?strategy net method_ with
      | exception Network.Cyclic -> Rejected Cyclic_route
      | analysis -> (
          let bounds = Engine.all_flow_delays analysis in
          match first_violation analysis bounds all with
          | None -> Accepted { bounds; analysis }
          | Some reason -> Rejected reason))

let run ?options ?strategy ~servers ~base ~candidates ~method_ () =
  let step (admitted_rev, rejections_rev, last) (cand : Flow.t) =
    let flows = base @ List.rev admitted_rev in
    match
      decide_one ?options ?strategy ~servers ~flows ~candidate:cand ~method_ ()
    with
    | Accepted { analysis; _ } ->
        (cand :: admitted_rev, rejections_rev, Some analysis)
    | Rejected reason -> (admitted_rev, (cand, reason) :: rejections_rev, last)
  in
  let admitted_rev, rejections_rev, analysis =
    List.fold_left step ([], [], None) candidates
  in
  let admitted = List.rev admitted_rev in
  let rejections = List.rev rejections_rev in
  {
    admitted;
    rejected = List.map fst rejections;
    rejections;
    admitted_rate = Propagation.total_rate admitted;
    analysis;
  }

let reason_to_string = function
  | No_deadline -> "no deadline"
  | Cyclic_route -> "cyclic routing"
  | Deadline_violated { flow; bound; deadline } ->
      Printf.sprintf "flow %d bound %g > deadline %g" flow bound deadline
  | Buffer_violated { flow; server; backlog; buffer } ->
      Printf.sprintf "flow %d backlog %g at server %d > buffer %g" flow backlog
        server buffer
