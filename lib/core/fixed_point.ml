type t = { pass : Forward.t; converged : bool; iterations : int }

let converged t = t.converged
let iterations t = t.iterations

(* The iteration stops once no envelope moves by more than this. *)
let tol = 1e-9

(* Distance between two envelopes (sup norm); the envelopes share the
   same long-run rate, so this is finite whenever both are. *)
let distance a b =
  Float.max (Pwl.sup_diff a b) (Pwl.sup_diff b a)

let c_runs = Metrics.counter "fixed_point.runs"
let c_iterations = Metrics.counter "fixed_point.iterations"

let analyze ?(options = Options.default) ?(max_iter = 200) net =
  Prof.count c_runs;
  Prof.span "fixed_point.analyze" @@ fun () ->
  let flows = Network.flows net in
  let sids = List.map (fun (s : Server.t) -> s.id) (Network.servers net) in
  (* Optimistic seed: every flow carries its source envelope at every
     hop.  The iteration operator is monotone, so the iterates only
     grow from here. *)
  let seeded () =
    let envs = Propagation.empty () in
    List.iter
      (fun (f : Flow.t) ->
        List.iter
          (fun sid ->
            Propagation.set envs ~flow:f.id ~server:sid (Flow.source_curve f))
          f.route)
      flows;
    Forward.create ~options net envs
  in
  let change prev next =
    let env pass (f : Flow.t) sid =
      Propagation.get (Forward.envs pass) ~flow:f.id ~server:sid
    in
    List.fold_left
      (fun acc (f : Flow.t) ->
        List.fold_left
          (fun acc sid ->
            Float.max acc (distance (env next f sid) (env prev f sid)))
          acc f.route)
      0. flows
  in
  let rec iterate pass round =
    if round >= max_iter then (pass, false, round)
    else begin
      (* Jacobi step: every server's step from the frozen pass, on the
         netcalc.par pool, then all applied to a fresh seeded pass.  A
         step only reads the frozen pass, so the steps are independent;
         each next-hop envelope is written by exactly one step, so the
         iterates are bit-identical at any jobs count. *)
      let steps = Par.map (Forward.compute pass) sids in
      let next = seeded () in
      List.iter (Forward.apply next) steps;
      if List.exists (fun sid -> Forward.server_delay next sid = infinity) sids
      then (next, false, round + 1)
      else if change pass next <= tol then (next, true, round + 1)
      else iterate next (round + 1)
    end
  in
  let pass, converged, iterations = iterate (seeded ()) 0 in
  Prof.count_n c_iterations iterations;
  { pass; converged; iterations }

let flow_delay t id =
  if t.converged then Forward.flow_delay t.pass id else infinity

let all_flow_delays t = Network.by_flow (Forward.network t.pass) (flow_delay t)
