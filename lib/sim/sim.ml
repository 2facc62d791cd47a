type config = {
  packet_size : float;
  horizon : float;
  models : (int * Source.model) list;
  record_departures : bool;
      (* keep per-(flow, server) departure timestamps; off by default
         (memory proportional to packets x hops) *)
  buffers : (int * float) list;
      (* per-server buffer capacities (bytes, incl. packet in service);
         servers not listed are unbuffered (infinite); arriving packets
         that would overflow are dropped and counted *)
}

let default_config =
  {
    packet_size = 0.25;
    horizon = 200.;
    models = [];
    record_departures = false;
    buffers = [];
  }

(* Discipline-specific ready queues.  EDF and GPS reuse the event heap
   as a priority queue keyed by deadline / virtual finish tag. *)
type queue =
  | Qfifo of Packet.t Queue.t
  | Qprio of (int, Packet.t Queue.t) Hashtbl.t
  | Qtag of Packet.t Event_heap.t

type server_state = {
  server : Server.t;
  queue : queue;
  mutable in_service : Packet.t option;
  mutable backlog : float;
  mutable max_backlog : float;
  (* SCFQ state for GPS servers: virtual time and per-flow last tag. *)
  mutable vtime : float;
  flow_tags : (int, float) Hashtbl.t;
}

type result = {
  flows : (int, Stats.t) Hashtbl.t;
  hops : (int, Stats.t) Hashtbl.t; (* per-server single-hop delays *)
  backlogs : (int, float) Hashtbl.t;
  departures : (int * int, float list ref) Hashtbl.t;
      (* (flow, server) -> departure times, newest first *)
  drops : (int, int) Hashtbl.t; (* server -> dropped packet count *)
  mutable delivered : int;
}

type event = Arrive of Packet.t * int | Finish of int

let make_state (s : Server.t) =
  let queue =
    match s.discipline with
    | Discipline.Fifo -> Qfifo (Queue.create ())
    | Discipline.Static_priority -> Qprio (Hashtbl.create 4)
    | Discipline.Edf | Discipline.Gps -> Qtag (Event_heap.create ())
  in
  {
    server = s;
    queue;
    in_service = None;
    backlog = 0.;
    max_backlog = 0.;
    vtime = 0.;
    flow_tags = Hashtbl.create 8;
  }

let queue_is_empty = function
  | Qfifo q -> Queue.is_empty q
  | Qprio tbl ->
      Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) tbl true
  | Qtag h -> Event_heap.is_empty h

let enqueue net state (p : Packet.t) time =
  p.Packet.enqueued <- time;
  let flow = Network.flow net p.Packet.flow in
  (match state.queue with
  | Qfifo q -> Queue.push p q
  | Qprio tbl ->
      let prio = flow.Flow.priority in
      let q =
        match Hashtbl.find_opt tbl prio with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace tbl prio q;
            q
      in
      Queue.push p q
  | Qtag h -> (
      match state.server.discipline with
      | Discipline.Edf ->
          let local =
            match flow.Flow.deadline with
            | Some d -> d /. float_of_int (List.length flow.Flow.route)
            | None -> infinity
          in
          p.Packet.local_deadline <- time +. local;
          Event_heap.push h ~time:p.Packet.local_deadline p
      | Discipline.Gps ->
          (* Self-clocked fair queueing: tag = max(vtime, flow's last
             tag) + size / weight. *)
          let last =
            match Hashtbl.find_opt state.flow_tags flow.Flow.id with
            | Some t -> t
            | None -> 0.
          in
          let tag =
            Float.max state.vtime last
            +. (p.Packet.size /. flow.Flow.weight)
          in
          Hashtbl.replace state.flow_tags flow.Flow.id tag;
          p.Packet.local_deadline <- tag;
          Event_heap.push h ~time:tag p
      | Discipline.Fifo | Discipline.Static_priority -> assert false));
  state.backlog <- state.backlog +. p.Packet.size;
  if state.backlog > state.max_backlog then state.max_backlog <- state.backlog

let dequeue state =
  match state.queue with
  | Qfifo q -> if Queue.is_empty q then None else Some (Queue.pop q)
  | Qprio tbl ->
      let best = ref None in
      Hashtbl.iter
        (fun prio q ->
          if not (Queue.is_empty q) then
            match !best with
            | Some (p0, _) when p0 <= prio -> ()
            | _ -> best := Some (prio, q))
        tbl;
      Option.map (fun (_, q) -> Queue.pop q) !best
  | Qtag h -> (
      match Event_heap.pop h with
      | Some (tag, p) ->
          if state.server.discipline = Discipline.Gps then state.vtime <- tag;
          Some p
      | None -> None)

let c_events = Metrics.counter "sim.events"
let c_arrivals = Metrics.counter "sim.events.arrive"
let c_finishes = Metrics.counter "sim.events.finish"
let c_runs = Metrics.counter "sim.runs"
let d_heap_depth = Metrics.dist "sim.heap.depth"

let run ?(config = default_config) net =
  Prof.count c_runs;
  Prof.span "sim.run" @@ fun () ->
  let heap : event Event_heap.t = Event_heap.create () in
  let states = Hashtbl.create 16 in
  List.iter
    (fun (s : Server.t) -> Hashtbl.replace states s.id (make_state s))
    (Network.servers net);
  let result =
    {
      flows = Hashtbl.create 16;
      hops = Hashtbl.create 16;
      backlogs = Hashtbl.create 16;
      departures = Hashtbl.create 16;
      drops = Hashtbl.create 16;
      delivered = 0;
    }
  in
  List.iter
    (fun (s : Server.t) -> Hashtbl.replace result.hops s.id (Stats.create ()))
    (Network.servers net);
  List.iter
    (fun (f : Flow.t) -> Hashtbl.replace result.flows f.id (Stats.create ()))
    (Network.flows net);
  (* Schedule all emissions up front. *)
  let next_packet_id = ref 0 in
  List.iter
    (fun (f : Flow.t) ->
      let model =
        match List.assoc_opt f.id config.models with
        | Some m -> m
        | None -> Source.Greedy { start = 0. }
      in
      let sigma, rho, peak = Arrival.token_params f.arrival in
      let times =
        Source.emission_times model ~sigma ~rho ~peak
          ~packet_size:config.packet_size ~horizon:config.horizon
      in
      List.iter
        (fun t ->
          incr next_packet_id;
          let p =
            Packet.make ~id:!next_packet_id ~flow:f.id
              ~size:config.packet_size ~created:t ~route:f.route
          in
          Event_heap.push heap ~time:t (Arrive (p, List.hd f.route)))
        times)
    (Network.flows net);
  let start_service state time =
    match dequeue state with
    | Some p ->
        state.in_service <- Some p;
        Event_heap.push heap
          ~time:(time +. (p.Packet.size /. state.server.rate))
          (Finish state.server.id)
    | None -> ()
  in
  let rec drain () =
    if Prof.enabled () then
      Metrics.observe d_heap_depth (float_of_int (Event_heap.size heap));
    match Event_heap.pop heap with
    | None -> ()
    | Some (time, Arrive (p, sid)) ->
        Prof.count c_events;
        Prof.count c_arrivals;
        let state = Hashtbl.find states sid in
        let capacity =
          match List.assoc_opt sid config.buffers with
          | Some b -> b
          | None -> infinity
        in
        if state.backlog +. p.Packet.size > capacity +. 1e-12 then begin
          Hashtbl.replace result.drops sid
            (1 + try Hashtbl.find result.drops sid with Not_found -> 0);
          drain ()
        end
        else begin
          enqueue net state p time;
          if state.in_service = None then start_service state time;
          drain ()
        end
    | Some (time, Finish sid) ->
        Prof.count c_events;
        Prof.count c_finishes;
        let state = Hashtbl.find states sid in
        (match state.in_service with
        | None -> assert false
        | Some p ->
            state.in_service <- None;
            state.backlog <- state.backlog -. p.Packet.size;
            Stats.record (Hashtbl.find result.hops sid)
              (time -. p.Packet.enqueued);
            if config.record_departures then begin
              let key = (p.Packet.flow, sid) in
              let cell =
                match Hashtbl.find_opt result.departures key with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.replace result.departures key c;
                    c
              in
              cell := time :: !cell
            end;
            p.Packet.remaining <- List.tl p.Packet.remaining;
            (match p.Packet.remaining with
            | [] ->
                result.delivered <- result.delivered + 1;
                Stats.record
                  (Hashtbl.find result.flows p.Packet.flow)
                  (time -. p.Packet.created)
            | next :: _ -> Event_heap.push heap ~time (Arrive (p, next))));
        if not (queue_is_empty state.queue) then start_service state time;
        drain ()
  in
  drain ();
  Hashtbl.iter
    (fun sid state -> Hashtbl.replace result.backlogs sid state.max_backlog)
    states;
  result

let flow_stats result id = Hashtbl.find result.flows id
let server_stats result sid = Hashtbl.find result.hops sid
let server_max_delay result sid = Stats.max_value (server_stats result sid)
let max_delay result id = Stats.max_value (flow_stats result id)

let server_max_backlog result sid =
  match Hashtbl.find_opt result.backlogs sid with Some b -> b | None -> 0.

let packets_delivered result = result.delivered

let total_drops result = Hashtbl.fold (fun _ n acc -> acc + n) result.drops 0

let departures result ~flow ~server =
  match Hashtbl.find_opt result.departures (flow, server) with
  | Some c -> List.rev !c
  | None -> []
