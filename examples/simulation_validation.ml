(* Validate every analysis method against a packet-level simulation of
   the tandem under greedy (worst-case-seeking) sources.

   Bounds are computed for fluid traffic; the simulator is packetized
   and store-and-forward, so sources are peak-free and the classical
   packetization allowance (sum of L/C along the route) is granted —
   see Validate.  Any negative slack would be a soundness bug.

   Run with:  dune exec examples/simulation_validation.exe *)

let () =
  let n = 4 and u = 0.8 in
  let t = Tandem.make ~n ~utilization:u ~peak:infinity () in
  let net = t.network in
  let config = { Sim.default_config with packet_size = 0.2; horizon = 500. } in
  let dd = Decomposed.analyze net in
  let methods =
    [
      ("Decomposed", Decomposed.all_flow_delays dd);
      ( "Service Curve",
        Service_curve_method.all_flow_delays (Service_curve_method.analyze dd)
      );
      ( "Integrated",
        Integrated.all_flow_delays
          (Integrated.analyze ~strategy:(Pairing.Along_route 0) net) );
    ]
  in
  Printf.printf
    "Tandem n = %d at U = %g, greedy peak-free sources, packets of %g.\n\n"
    n u config.packet_size;
  let tbl =
    Table.create
      ~header:
        [ "flow"; "observed"; "D_D"; "D_SC"; "D_I"; "min slack" ]
  in
  let reports =
    List.map (fun (_, bounds) -> Validate.check ~config ~bounds net) methods
  in
  let all_ok = ref true in
  List.iteri
    (fun i (f : Flow.t) ->
      let row = List.map (fun rs -> List.nth rs i) reports in
      let observed = (List.hd row).Validate.observed in
      let min_slack =
        List.fold_left
          (fun acc (r : Validate.report) -> Float.min acc r.slack)
          infinity row
      in
      if min_slack < -1e-6 then all_ok := false;
      Table.add_row tbl
        ([ f.name; Table.float_cell observed ]
        @ List.map
            (fun (r : Validate.report) -> Table.float_cell r.bound)
            row
        @ [ Table.float_cell min_slack ]))
    (Network.flows net);
  Table.print tbl;
  Printf.printf "\n%s\n"
    (if !all_ok then
       "All bounds dominate the observed worst case (as they must)."
     else "*** SOUNDNESS VIOLATION DETECTED ***")
