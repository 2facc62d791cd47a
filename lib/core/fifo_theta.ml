type t = {
  net : Network.t;
  prop : Decomposed.t;
  scm : Service_curve_method.t;
}

let analyze prop =
  {
    net = Decomposed.network prop;
    prop;
    scm = Service_curve_method.analyze prop;
  }

(* Coordinate-descent passes over the theta vector. *)
let sweeps = 2

(* Per-hop data.  The theta family holds only at FIFO servers; every
   other hop keeps Algorithm Service Curve's induced curve. *)
type hop =
  | Theta of float * Pwl.t (* server rate, cross-traffic envelope *)
  | Fixed of Pwl.t

let hop_data t ~(flow : Flow.t) =
  List.map
    (fun sid ->
      let s = Network.server t.net sid in
      match s.discipline with
      | Discipline.Fifo ->
          let cross =
            Network.flows_at t.net sid
            |> List.filter (fun (g : Flow.t) -> g.id <> flow.id)
            |> List.map (fun (g : Flow.t) ->
                   Decomposed.envelope_at t.prop ~flow:g.id ~server:sid)
            |> Pwl.sum
          in
          Theta (s.Server.rate, cross)
      | Discipline.Static_priority | Discipline.Edf | Discipline.Gps ->
          Fixed
            (Service_curve_method.hop_service_curve t.scm ~flow:flow.id
               ~server:sid))
    flow.route

let hop_curve hop theta =
  match hop with
  | Theta (rate, cross) -> Service.fifo_theta ~rate ~cross ~theta
  | Fixed beta -> beta

let end_to_end alpha hops thetas =
  let curves = List.map2 hop_curve hops thetas in
  if List.exists (fun b -> Pwl.final_slope b <= 0.) curves then infinity
  else Deviation.hdev ~alpha ~beta:(Minplus.conv_list curves)

(* The analytic optimum for token-bucket cross traffic (burst / rate);
   0 at a hop without a theta. *)
let analytic = function
  | Theta (rate, cross) -> Pwl.value_at_zero cross /. rate
  | Fixed _ -> 0.

(* Candidate thetas for one hop: 0 (the leftover curve), the analytic
   optimum, and a few multiples to let coordinate descent escape it. *)
let candidates = function
  | Theta _ as hop ->
      let base = analytic hop in
      List.sort_uniq compare
        [ 0.; base /. 2.; base; 1.5 *. base; 2. *. base; 4. *. base ]
  | Fixed _ -> []

let tune alpha hops =
  let analytic = List.map analytic hops in
  let zeros = List.map (fun _ -> 0.) hops in
  let start =
    if end_to_end alpha hops analytic <= end_to_end alpha hops zeros then
      analytic
    else zeros
  in
  let thetas = Array.of_list start in
  let best = ref (end_to_end alpha hops (Array.to_list thetas)) in
  for _ = 1 to sweeps do
    List.iteri
      (fun i hop ->
        List.iter
          (fun cand ->
            let saved = thetas.(i) in
            thetas.(i) <- cand;
            let d = end_to_end alpha hops (Array.to_list thetas) in
            if d < !best then best := d else thetas.(i) <- saved)
          (candidates hop))
      hops
  done;
  (!best, Array.to_list thetas)

let flow_delay t id =
  let f = Network.flow t.net id in
  match hop_data t ~flow:f with
  | hops -> fst (tune (Flow.source_curve f) hops)
  | exception Invalid_argument _ -> infinity

let all_flow_delays t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay t f.id))
  |> List.sort compare

let thetas t ~flow =
  let f = Network.flow t.net flow in
  snd (tune (Flow.source_curve f) (hop_data t ~flow:f))
