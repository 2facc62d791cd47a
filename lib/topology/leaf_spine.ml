(* Two-tier leaf-spine fabric, directionalized into a feedforward DAG.

   Each leaf switch contributes two servers — its fabric-facing uplink
   port (leaf_up) and its host-facing downlink port (leaf_down) — and
   each spine one server.  Every flow crosses the fabric:

     leaf_up(src) -> spine(j) -> leaf_down(dst)

   Ids are assigned in blocks (leaf_ups, then spines, then leaf_downs),
   so every route is strictly increasing and the network is feedforward
   by construction.  The antichain decomposition is exactly the three
   blocks, which makes this the cheapest family to push to 10^5+
   servers: levels stay at three however wide the fabric gets. *)

type params = {
  leaves : int;
  spines : int;
  num_flows : int;
  utilization : float;
  max_burst : float;
  peak : float;
  seed : int;
}

let default =
  {
    leaves = 8;
    spines = 4;
    num_flows = 32;
    utilization = 0.6;
    max_burst = 2.;
    peak = 1.;
    seed = 42;
  }

let generate p =
  if p.leaves < 1 then invalid_arg "Leaf_spine.generate: leaves < 1";
  if p.spines < 1 then invalid_arg "Leaf_spine.generate: spines < 1";
  if p.num_flows < 1 then invalid_arg "Leaf_spine.generate: num_flows < 1";
  let rng = Random.State.make [| p.seed |] in
  let leaf_up i = i in
  let spine j = p.leaves + j in
  let leaf_down i = p.leaves + p.spines + i in
  (* Spines carry the aggregate of many leaves: give them
     proportionally more capacity so utilization scaling is not
     dominated by an artificial fabric bottleneck. *)
  let spine_rate = Float.max 1. (float_of_int p.leaves /. float_of_int p.spines) in
  let rate_of sid = if sid >= p.leaves && sid < p.leaves + p.spines then spine_rate else 1. in
  let servers =
    List.init p.leaves (fun i ->
        Server.make ~id:(leaf_up i) ~name:(Printf.sprintf "leaf%d-up" i)
          ~rate:1. ())
    @ List.init p.spines (fun j ->
          Server.make ~id:(spine j) ~name:(Printf.sprintf "spine%d" j)
            ~rate:spine_rate ())
    @ List.init p.leaves (fun i ->
          Server.make ~id:(leaf_down i) ~name:(Printf.sprintf "leaf%d-down" i)
            ~rate:1. ())
  in
  let raw =
    List.init p.num_flows (fun i ->
        let src = Random.State.int rng p.leaves in
        let dst = Random.State.int rng p.leaves in
        let sp = Random.State.int rng p.spines in
        let route = [ leaf_up src; spine sp; leaf_down dst ] in
        let sigma = Genutil.draw_sigma rng ~max_burst:p.max_burst in
        let w = Random.State.float rng 1.0 +. 0.1 in
        (i, route, sigma, w))
  in
  let flows =
    Genutil.scale_to_utilization ~rate_of ~utilization:p.utilization
      ~peak:p.peak raw
  in
  Network.make ~servers ~flows
