type method_ = Decomposed | Service_curve | Integrated | Fifo_theta

let all_methods = [ Decomposed; Service_curve; Integrated; Fifo_theta ]

let method_name = function
  | Decomposed -> "Decomposed"
  | Service_curve -> "Service Curve"
  | Integrated -> "Integrated"
  | Fifo_theta -> "FIFO-theta"

let compute ?options ?strategy net method_ flow =
  match method_ with
  | Decomposed -> Decomposed.flow_delay (Decomposed.analyze ?options net) flow
  | Service_curve ->
      Service_curve_method.flow_delay (Service_curve_method.analyze ?options net) flow
  | Integrated ->
      Integrated.flow_delay (Integrated.analyze ?options ?strategy net) flow
  | Fifo_theta -> Fifo_theta.flow_delay (Fifo_theta.analyze ?options net) flow

let c_flow_delay = Metrics.counter "engine.flow_delay.calls"
let d_flow_delay_ns = Metrics.dist "engine.flow_delay.ns"

let flow_delay ?options ?strategy net method_ flow =
  if not (Prof.enabled ()) then compute ?options ?strategy net method_ flow
  else begin
    (* One span per (method, flow) query: profiles aggregate per method
       name, traces show the per-flow breakdown. *)
    Metrics.incr c_flow_delay;
    Trace.with_span ("engine." ^ method_name method_) @@ fun () ->
    (* Wall clock (same clock as the trace spans), not [Sys.time]: CPU
       seconds aggregate over every netcalc.par domain, so they
       over-report per-query latency by up to [jobs]x. *)
    let t0 = Trace.now_us () in
    let d = compute ?options ?strategy net method_ flow in
    Metrics.observe d_flow_delay_ns ((Trace.now_us () -. t0) *. 1e3);
    d
  end

(* Buffer requirement (worst per-hop backlog bound) of one flow under
   one method.  Service Curve and FIFO-theta have no backlog notion of
   their own; the decomposed engine's bound is sound for them too. *)
let flow_backlog ?options ?strategy net method_ flow =
  match method_ with
  | Decomposed | Service_curve | Fifo_theta ->
      Decomposed.flow_backlog (Decomposed.analyze ?options net) flow
  | Integrated ->
      Integrated.flow_backlog (Integrated.analyze ?options ?strategy net) flow

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
  (* The four methods are independent whole-network analyses, so run
     them on the netcalc.par pool.  [Par.map] returns results in list
     order whatever the schedule, so the comparison record (and every
     table built from it) is identical at any jobs count.  Backlogs
     ride along with the delay of the engine that produced them, so the
     comparison costs no extra analyses. *)
  let run = function
    | Some Fifo_theta -> (flow_delay ?options net Fifo_theta flow, nan)
    | Some Integrated ->
        ( flow_delay ?options ?strategy net Integrated flow,
          flow_backlog ?options ?strategy net Integrated flow )
    | Some Decomposed ->
        ( flow_delay ?options net Decomposed flow,
          flow_backlog ?options net Decomposed flow )
    | Some m -> (flow_delay ?options net m flow, nan)
    | None -> (nan, nan)
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
