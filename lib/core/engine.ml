type method_ = Decomposed | Service_curve | Integrated | Fifo_theta

let all_methods = [ Decomposed; Service_curve; Integrated; Fifo_theta ]

let method_name = function
  | Decomposed -> "Decomposed"
  | Service_curve -> "Service Curve"
  | Integrated -> "Integrated"
  | Fifo_theta -> "FIFO-theta"

(* Service Curve and FIFO-theta run on a decomposed propagation, and
   borrow its backlog bounds: they have no backlog notion of their own,
   and the decomposed bounds are sound for them too. *)
type analysis =
  | Decomposed_pass of Decomposed.t
  | Service_curve_pass of Decomposed.t * Service_curve_method.t
  | Integrated_pass of Integrated.t
  | Fifo_theta_pass of Decomposed.t * Fifo_theta.t

let method_of = function
  | Decomposed_pass _ -> Decomposed
  | Service_curve_pass _ -> Service_curve
  | Integrated_pass _ -> Integrated
  | Fifo_theta_pass _ -> Fifo_theta

(* [m]'s analysis of [net]; [dd ()] is the decomposed pass that the
   methods built on one share. *)
let build ?options ?strategy net dd = function
  | Decomposed -> Decomposed_pass (dd ())
  | Service_curve ->
      let dd = dd () in
      Service_curve_pass (dd, Service_curve_method.analyze dd)
  | Integrated -> Integrated_pass (Integrated.analyze ?options ?strategy net)
  | Fifo_theta ->
      let dd = dd () in
      Fifo_theta_pass (dd, Fifo_theta.analyze dd)

let analyze ?options ?strategy net m =
  build ?options ?strategy net (fun () -> Decomposed.analyze ?options net) m

let delay a flow =
  match a with
  | Decomposed_pass t -> Decomposed.flow_delay t flow
  | Service_curve_pass (_, t) -> Service_curve_method.flow_delay t flow
  | Integrated_pass t -> Integrated.flow_delay t flow
  | Fifo_theta_pass (_, t) -> Fifo_theta.flow_delay t flow

let c_flow_delay = Metrics.counter "engine.flow_delay.calls"
let d_flow_delay_ns = Metrics.dist "engine.flow_delay.ns"

let flow_delay a flow =
  if not (Prof.enabled ()) then delay a flow
  else begin
    (* One span per (method, flow) query: profiles aggregate per method
       name, traces show the per-flow breakdown.  The passes have spans
       of their own ([decomposed.analyze], [integrated.analyze]). *)
    Metrics.incr c_flow_delay;
    Trace.with_span ("engine." ^ method_name (method_of a)) @@ fun () ->
    (* Wall clock (same clock as the trace spans), not [Sys.time]: CPU
       seconds aggregate over every netcalc.par domain, so they
       over-report per-query latency by up to [jobs]x. *)
    let t0 = Trace.now_us () in
    let d = delay a flow in
    Metrics.observe d_flow_delay_ns ((Trace.now_us () -. t0) *. 1e3);
    d
  end

let all_flow_delays = function
  | Decomposed_pass t -> Decomposed.all_flow_delays t
  | Service_curve_pass (_, t) -> Service_curve_method.all_flow_delays t
  | Integrated_pass t -> Integrated.all_flow_delays t
  | Fifo_theta_pass (_, t) -> Fifo_theta.all_flow_delays t

let local_backlog a ~flow ~server =
  match a with
  | Decomposed_pass t | Service_curve_pass (t, _) | Fifo_theta_pass (t, _) ->
      Decomposed.local_backlog t ~flow ~server
  | Integrated_pass t -> Integrated.local_backlog t ~flow ~server

let flow_backlog a flow =
  match a with
  | Decomposed_pass t | Service_curve_pass (t, _) | Fifo_theta_pass (t, _) ->
      Decomposed.flow_backlog t flow
  | Integrated_pass t -> Integrated.flow_backlog t flow

type comparison = {
  flow : int;
  decomposed : float;
  service_curve : float;
  integrated : float;
  fifo_theta : float;
  decomposed_backlog : float;
  integrated_backlog : float;
}

let compare_all ?options ?strategy ?(with_theta = true) net flow =
  (* One decomposed pass serves Decomposed, Service Curve and
     FIFO-theta.  The methods' remaining work is independent, so it
     runs on the netcalc.par pool; [Par.map] returns results in list
     order whatever the schedule, so the comparison record (and every
     table built from it) is identical at any jobs count.  Backlogs ride
     along with the delay of the engine that produced them. *)
  let dd = Decomposed.analyze ?options net in
  let run = function
    | None -> (nan, nan)
    | Some m ->
        let a = build ?options ?strategy net (fun () -> dd) m in
        ( flow_delay a flow,
          match m with
          | Decomposed | Integrated -> flow_backlog a flow
          | Service_curve | Fifo_theta -> nan )
  in
  match
    Par.map run
      [
        Some Decomposed; Some Service_curve; Some Integrated;
        (if with_theta then Some Fifo_theta else None);
      ]
  with
  | [
   (decomposed, decomposed_backlog);
   (service_curve, _);
   (integrated, integrated_backlog);
   (fifo_theta, _);
  ] ->
      {
        flow;
        decomposed;
        service_curve;
        integrated;
        fifo_theta;
        decomposed_backlog;
        integrated_backlog;
      }
  | _ -> assert false

let relative_improvement dx dy =
  if not (Float.is_finite dx) || not (Float.is_finite dy)
     || Float_ops.eq_exact dx 0.
  then nan
  else (dx -. dy) /. dx
