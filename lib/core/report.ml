let buffer_add_table buf tbl =
  Buffer.add_string buf (Table.to_string tbl);
  Buffer.add_char buf '\n'

let header buf net title =
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Format.asprintf "%a@.@." Network.pp net)

let route_names net (f : Flow.t) =
  String.concat " -> "
    (List.map (fun s -> (Network.server net s).Server.name) f.route)

let decomposed a =
  let net = Decomposed.network a in
  let buf = Buffer.create 1024 in
  header buf net "Decomposed (per-server) analysis";
  let servers = Table.create
      ~header:[ "server"; "disc"; "rate"; "util"; "local delay"; "backlog"; "busy period" ]
  in
  List.iter
    (fun (s : Server.t) ->
      Table.add_row servers
        [
          s.name;
          Discipline.to_string s.discipline;
          Table.float_cell s.rate;
          Table.float_cell (Network.utilization net s.id);
          Table.float_cell (Decomposed.server_delay a s.id);
          Table.float_cell (Decomposed.server_backlog a s.id);
          Table.float_cell (Decomposed.server_busy_period a s.id);
        ])
    (Network.servers net);
  buffer_add_table buf servers;
  Buffer.add_char buf '\n';
  let flows =
    Table.create
      ~header:
        [ "flow"; "route"; "bound"; "per-hop"; "deadline"; "buffer need" ]
  in
  List.iter
    (fun (f : Flow.t) ->
      Table.add_row flows
        [
          f.name;
          route_names net f;
          Table.float_cell (Decomposed.flow_delay a f.id);
          String.concat " + "
            (List.map
               (fun s ->
                 Table.float_cell
                   (Decomposed.local_delay a ~flow:f.id ~server:s))
               f.route);
          (match f.deadline with
          | Some d -> Table.float_cell d
          | None -> "-");
          Table.float_cell (Decomposed.flow_backlog a f.id);
        ])
    (Network.flows net);
  buffer_add_table buf flows;
  Buffer.contents buf

let integrated a =
  let net = Integrated.network a in
  let buf = Buffer.create 1024 in
  header buf net "Integrated (pairwise) analysis";
  Buffer.add_string buf
    (Format.asprintf "Pairing: %a@.@." Pairing.pp (Integrated.pairing a));
  let servers = Table.create ~header:[ "server"; "rate"; "backlog" ] in
  List.iter
    (fun (s : Server.t) ->
      Table.add_row servers
        [
          s.name;
          Table.float_cell s.rate;
          Table.float_cell (Integrated.server_backlog a s.id);
        ])
    (Network.servers net);
  buffer_add_table buf servers;
  Buffer.add_char buf '\n';
  let flows =
    Table.create
      ~header:[ "flow"; "route"; "bound"; "per-subnetwork"; "buffer need" ]
  in
  List.iter
    (fun (f : Flow.t) ->
      let contributions =
        List.map
          (fun (subnet, d) ->
            Format.asprintf "%a:%s" Pairing.pp [ subnet ] (Table.float_cell d))
          (Integrated.subnet_delays a f.id)
      in
      Table.add_row flows
        [
          f.name;
          route_names net f;
          Table.float_cell (Integrated.flow_delay a f.id);
          String.concat " + " contributions;
          Table.float_cell (Integrated.flow_backlog a f.id);
        ])
    (Network.flows net);
  buffer_add_table buf flows;
  Buffer.contents buf
