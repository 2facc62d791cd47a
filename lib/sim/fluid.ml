type t = {
  net : Network.t;
  arrivals : (int * int, Pwl.t) Hashtbl.t; (* (flow, server) -> input *)
  outputs : (int, Pwl.t) Hashtbl.t;        (* flow -> final output *)
  backlogs : (int, float) Hashtbl.t;       (* server -> peak backlog *)
}

(* Instantaneous bursts (value jumps) break the exact FIFO
   bit-ordering composition A_i o G^{-1} o D at simultaneous batches,
   so greedy realizations emit the burst at a very high — but finite —
   peak rate instead.  The realization still conforms to the flow's
   envelope and is within O(sigma / burst_peak) of the instantaneous
   worst case. *)
let burst_peak = 1e4

let greedy ?(phase = 0.) (f : Flow.t) =
  if phase < 0. then invalid_arg "Fluid.greedy: negative phase";
  let env =
    Pwl.min_pw (Pwl.affine ~y0:0. ~slope:burst_peak) (Flow.source_curve f)
  in
  if Float_ops.eq_exact phase 0. then env else Pwl.shift_right env phase

let run ?(inputs = []) net =
  let order = Network.topological_order net in
  List.iter
    (fun (s : Server.t) ->
      if s.discipline <> Discipline.Fifo then
        invalid_arg "Fluid.run: FIFO servers only")
    (Network.servers net);
  List.iter
    (fun (f : Flow.t) ->
      if Flow.rate f <= 0. then
        invalid_arg
          (Printf.sprintf
             "Fluid.run: flow %s has zero long-run rate (bit ordering needs \
              an invertible aggregate)"
             f.name))
    (Network.flows net);
  let arrivals = Hashtbl.create 64 in
  let outputs = Hashtbl.create 16 in
  let backlogs = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) ->
      let source =
        match List.assoc_opt f.id inputs with
        | Some curve -> curve
        | None -> greedy f
      in
      Hashtbl.replace arrivals (f.id, Flow.first_hop f) source)
    (Network.flows net);
  List.iter
    (fun sid ->
      let server = Network.server net sid in
      let present = Network.flows_at net sid in
      if present <> [] then begin
        let ins =
          List.map
            (fun (f : Flow.t) -> (f, Hashtbl.find arrivals (f.id, sid)))
            present
        in
        (* running_max only scrubs sub-tolerance float noise from the
           repeated reconstructions; all these curves are nondecreasing
           mathematically. *)
        let g = Pwl.running_max (Pwl.sum (List.map snd ins)) in
        let d =
          Pwl.running_max (Minplus.conv_with_rate ~rate:server.Server.rate g)
        in
        Hashtbl.replace backlogs sid
          (Float_ops.positive_part (Pwl.sup_diff g d));
        (* Bit departing at t arrived at H t = G^{-1}(D t); flow i's
           output is A_i (H t). *)
        let h =
          Pwl.running_max (Pwl.compose ~outer:(Pwl.pseudo_inverse g) ~inner:d)
        in
        List.iter
          (fun ((f : Flow.t), a_in) ->
            let out = Pwl.running_max (Pwl.compose ~outer:a_in ~inner:h) in
            match Flow.next_hop f sid with
            | Some s' -> Hashtbl.replace arrivals (f.id, s') out
            | None -> Hashtbl.replace outputs f.id out)
          ins
      end)
    order;
  { net; arrivals; outputs; backlogs }

let input_at t ~flow ~server = Hashtbl.find t.arrivals (flow, server)
let output_of t ~flow = Hashtbl.find t.outputs flow

let flow_delay t id =
  let f = Network.flow t.net id in
  let source = Hashtbl.find t.arrivals (id, Flow.first_hop f) in
  let out = Hashtbl.find t.outputs id in
  (* Delay of the y-th bit: out^{-1} y - source^{-1} y.  sup_diff takes
     both right and left limits at every breakpoint, which pairs each
     bit's departure and arrival consistently (left limits give bit y
     exactly; right limits give the limit over bits just above y). *)
  Float_ops.positive_part
    (Pwl.sup_diff (Pwl.pseudo_inverse out) (Pwl.pseudo_inverse source))

let server_backlog t sid =
  match Hashtbl.find_opt t.backlogs sid with Some b -> b | None -> 0.

(* Random phases are drawn uniformly from [0, max_phase). *)
let max_phase = 5.

let phase_search ?(tries = 8) ?(seed = 11) net =
  let rng = Random.State.make [| seed |] in
  let flows = Network.flows net in
  let best = Hashtbl.create 16 in
  List.iter (fun (f : Flow.t) -> Hashtbl.replace best f.id 0.) flows;
  for i = 0 to tries - 1 do
    let inputs =
      if i = 0 then []
      else
        List.map
          (fun (f : Flow.t) ->
            (f.id, greedy ~phase:(Random.State.float rng max_phase) f))
          flows
    in
    let result = run ~inputs net in
    List.iter
      (fun (f : Flow.t) ->
        let d = flow_delay result f.id in
        if d > Hashtbl.find best f.id then Hashtbl.replace best f.id d)
      flows
  done;
  flows
  |> List.map (fun (f : Flow.t) -> (f.id, Hashtbl.find best f.id))
  |> List.sort compare
