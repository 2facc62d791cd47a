type t = {
  net : Network.t;
  locals : (int * int, float) Hashtbl.t; (* (flow, server) -> local bound *)
  converged : bool;
  iterations : int;
}

let converged t = t.converged
let iterations t = t.iterations

(* Distance between two envelopes (sup norm); the envelopes share the
   same long-run rate, so this is finite whenever both are. *)
let distance a b =
  Float.max (Pwl.sup_diff a b) (Pwl.sup_diff b a)

let c_runs = Metrics.counter "fixed_point.runs"
let c_iterations = Metrics.counter "fixed_point.iterations"

let analyze ?(options = Options.default) ?(max_iter = 200) ?(tol = 1e-9) net =
  Prof.count c_runs;
  Prof.span "fixed_point.analyze" @@ fun () ->
  let flows = Network.flows net in
  let servers = Network.servers net in
  let locals = Hashtbl.create 64 in
  (* Optimistic seed: every flow carries its source envelope at every
     hop.  The iteration operator is monotone, so the iterates only
     grow from here. *)
  let seed () =
    let table = Propagation.create net in
    List.iter
      (fun (f : Flow.t) ->
        List.iter
          (fun sid ->
            Propagation.set table ~flow:f.id ~server:sid (Flow.source_curve f))
          f.route)
      flows;
    table
  in
  let envs = ref (seed ()) in
  let rec iterate round =
    if round >= max_iter then (false, round)
    else begin
      (* Jacobi step: all local delays from the current table, then all
         envelope updates into a fresh table.  Per-server bounds only
         read the (frozen) current table, so they are independent —
         exactly the structure a Jacobi sweep buys over Gauss-Seidel —
         and run on the netcalc.par pool.  [Par.map] keeps list order,
         so the fold below applies updates in the sequential order and
         the iterates are bit-identical at any jobs count. *)
      let delays =
        Par.map
          (fun (s : Server.t) ->
            (s.id, Local_bounds.at_server ~options net !envs ~server:s.id))
          servers
      in
      let diverged = ref false in
      List.iter
        (fun (sid, per_flow) ->
          List.iter
            (fun ((f : Flow.t), d) ->
              Hashtbl.replace locals (f.id, sid) d;
              if d = infinity then diverged := true)
            per_flow)
        delays;
      if !diverged then (false, round + 1)
      else begin
        let next = seed () in
        List.iter
          (fun (sid, per_flow) ->
            List.iter
              (fun ((f : Flow.t), d) ->
                match Flow.next_hop f sid with
                | Some s' ->
                    Propagation.set next ~flow:f.id ~server:s'
                      (Pwl.shift_left
                         (Propagation.get !envs ~flow:f.id ~server:sid)
                         d)
                | None -> ())
              per_flow)
          delays;
        let change =
          List.fold_left
            (fun acc (f : Flow.t) ->
              List.fold_left
                (fun acc sid ->
                  Float.max acc
                    (distance
                       (Propagation.get next ~flow:f.id ~server:sid)
                       (Propagation.get !envs ~flow:f.id ~server:sid)))
                acc f.route)
            0. flows
        in
        envs := next;
        if change <= tol then (true, round + 1) else iterate (round + 1)
      end
    end
  in
  let ok, rounds = iterate 0 in
  Prof.count_n c_iterations rounds;
  { net; locals; converged = ok; iterations = rounds }

let local_delay t ~flow ~server =
  match Hashtbl.find_opt t.locals (flow, server) with
  | Some d -> if t.converged then d else infinity
  | None ->
      invalid_arg
        (Printf.sprintf
           "Fixed_point.local_delay: flow %d does not cross server %d" flow
           server)

let flow_delay t id =
  if not t.converged then infinity
  else
    let f = Network.flow t.net id in
    List.fold_left
      (fun acc sid -> acc +. local_delay t ~flow:id ~server:sid)
      0. f.route

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare
