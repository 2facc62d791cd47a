type t = { net : Network.t; prop : Decomposed.t }

let analyze prop = { net = Decomposed.network prop; prop }

(* Per-hop data: server rate and cross-traffic envelope. *)
let hop_data t ~(flow : Flow.t) =
  List.map
    (fun sid ->
      let s = Network.server t.net sid in
      let cross =
        Network.flows_at t.net sid
        |> List.filter (fun (g : Flow.t) -> g.id <> flow.id)
        |> List.map (fun (g : Flow.t) ->
               Decomposed.envelope_at t.prop ~flow:g.id ~server:sid)
        |> Pwl.sum
      in
      (s.Server.rate, cross))
    flow.route

let end_to_end alpha hops thetas =
  let curves =
    List.map2
      (fun (rate, cross) theta -> Service.fifo_theta ~rate ~cross ~theta)
      hops thetas
  in
  if List.exists (fun b -> Pwl.final_slope b <= 0.) curves then infinity
  else Deviation.hdev ~alpha ~beta:(Minplus.conv_list curves)

(* Candidate thetas for one hop: 0 (the leftover curve), the analytic
   optimum for token-bucket cross traffic (burst / rate), and a few
   multiples to let coordinate descent escape it. *)
let candidates (rate, cross) =
  let base = Pwl.value_at_zero cross /. rate in
  List.sort_uniq compare
    [ 0.; base /. 2.; base; 1.5 *. base; 2. *. base; 4. *. base ]

let tune ?(sweeps = 2) alpha hops =
  let analytic = List.map (fun (r, c) -> Pwl.value_at_zero c /. r) hops in
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

let flow_delay ?sweeps t id =
  let f = Network.flow t.net id in
  match hop_data t ~flow:f with
  | hops -> fst (tune ?sweeps (Flow.source_curve f) hops)
  | exception Invalid_argument _ -> infinity

let all_flow_delays ?sweeps t =
  Network.flows t.net
  |> List.map (fun (f : Flow.t) -> (f.id, flow_delay ?sweeps t f.id))
  |> List.sort compare

let thetas ?sweeps t ~flow =
  let f = Network.flow t.net flow in
  snd (tune ?sweeps (Flow.source_curve f) (hop_data t ~flow:f))
