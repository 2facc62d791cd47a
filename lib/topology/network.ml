module Int_map = Map.Make (Int)

type t = {
  servers : Server.t Int_map.t;
  size : int;  (* cardinal of [servers], which no update changes *)
  flow_list : Flow.t list;
  flow_map : Flow.t Int_map.t;
  (* Eager incidence index, built once in [make]: the analyses query
     [flows_at] once per server per pass, and the O(flows) list filter
     it used to be dominates everything past a few hundred servers. *)
  by_server : Flow.t list Int_map.t;
  (* Routing-DAG adjacency (deduplicated successors, ascending), the
     one-pass replacement for filtering the global edge list. *)
  succ_map : int list Int_map.t;
}

exception Cyclic

(* The checks a flow passes on its way into a network, shared by the
   bulk constructor and [add_flow] so the two paths cannot drift.  The
   messages keep their [Network.make] prefix on both paths: the serve
   protocol reports them verbatim as an admit's bad_request detail. *)
let check_flow servers flow_map (f : Flow.t) =
  List.iter
    (fun sid ->
      if not (Int_map.mem sid servers) then
        invalid_arg
          (Printf.sprintf "Network.make: flow %s routes via unknown server %d"
             f.name sid))
    f.route;
  if Int_map.mem f.id flow_map then
    invalid_arg (Printf.sprintf "Network.make: duplicate flow id %d" f.id)

let make ~servers ~flows =
  let server_map =
    List.fold_left
      (fun acc (s : Server.t) ->
        if Int_map.mem s.id acc then
          invalid_arg
            (Printf.sprintf "Network.make: duplicate server id %d" s.id)
        else Int_map.add s.id s acc)
      Int_map.empty servers
  in
  let size = Int_map.cardinal server_map in
  let flow_map =
    List.fold_left
      (fun acc (f : Flow.t) ->
        check_flow server_map acc f;
        Int_map.add f.id f acc)
      Int_map.empty flows
  in
  (* One pass over all routes builds both indices.  Accumulate reversed
     (cons is O(1)), then flip so [flows_at] preserves [flow_list]
     order and successors come out ascending and deduplicated. *)
  let by_server_rev = Hashtbl.create (max 16 size) in
  let succ_sets = Hashtbl.create (max 16 size) in
  List.iter
    (fun (f : Flow.t) ->
      List.iter
        (fun sid ->
          let cur = try Hashtbl.find by_server_rev sid with Not_found -> [] in
          Hashtbl.replace by_server_rev sid (f :: cur))
        f.route;
      List.iter
        (fun (a, b) ->
          let cur = try Hashtbl.find succ_sets a with Not_found -> [] in
          Hashtbl.replace succ_sets a (b :: cur))
        (Flow.hop_pairs f))
    flows;
  let by_server =
    Hashtbl.fold
      (fun sid fs acc -> Int_map.add sid (List.rev fs) acc)
      by_server_rev Int_map.empty
  in
  let succ_map =
    Hashtbl.fold
      (fun sid ss acc -> Int_map.add sid (List.sort_uniq compare ss) acc)
      succ_sets Int_map.empty
  in
  { servers = server_map; size; flow_list = flows; flow_map; by_server;
    succ_map }

(* [make] never stores an empty list, so an update that empties one
   drops its key instead. *)
let set_list key = function
  | [] -> Int_map.remove key
  | l -> Int_map.add key l

let find_list key m = Option.value ~default:[] (Int_map.find_opt key m)

let rec insert_sorted (x : int) = function
  | y :: rest when y < x -> y :: insert_sorted x rest
  | y :: _ as l when y = x -> l
  | l -> x :: l

let add_flow net (f : Flow.t) =
  check_flow net.servers net.flow_map f;
  let by_server =
    List.fold_left
      (fun m sid -> Int_map.add sid (find_list sid m @ [ f ]) m)
      net.by_server f.route
  in
  let succ_map =
    List.fold_left
      (fun m (a, b) -> Int_map.add a (insert_sorted b (find_list a m)) m)
      net.succ_map (Flow.hop_pairs f)
  in
  {
    net with
    flow_list = net.flow_list @ [ f ];
    flow_map = Int_map.add f.id f net.flow_map;
    by_server;
    succ_map;
  }

let remove_flow net id =
  match Int_map.find_opt id net.flow_map with
  | None ->
      invalid_arg (Printf.sprintf "Network.remove_flow: unknown flow id %d" id)
  | Some f ->
      let other (g : Flow.t) = g.id <> id in
      let by_server =
        List.fold_left
          (fun m sid -> set_list sid (List.filter other (find_list sid m)) m)
          net.by_server f.route
      in
      (* Every flow using edge (a, b) crosses a, so the edge survives
         iff a remaining flow at a continues to b. *)
      let succ_map =
        List.fold_left
          (fun m (a, b) ->
            if
              List.exists
                (fun g -> Flow.next_hop g a = Some b)
                (find_list a by_server)
            then m
            else set_list a (List.filter (( <> ) b) (find_list a m)) m)
          net.succ_map (Flow.hop_pairs f)
      in
      {
        net with
        flow_list = List.filter other net.flow_list;
        flow_map = Int_map.remove id net.flow_map;
        by_server;
        succ_map;
      }

let server net id =
  match Int_map.find_opt id net.servers with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Network.server: unknown server id %d" id)

let servers net = List.map snd (Int_map.bindings net.servers)
let flows net = net.flow_list

let flow_opt net id = Int_map.find_opt id net.flow_map

let flow net id =
  match flow_opt net id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Network.flow: unknown flow id %d" id)

let size net = net.size

let flows_at net sid = find_list sid net.by_server
let successors net sid = find_list sid net.succ_map

let edges net =
  (* succ_map iterates in ascending source order with ascending
     successor lists, so this is already the lexicographically sorted,
     deduplicated edge list the old sort_uniq produced. *)
  Int_map.fold
    (fun src succs acc ->
      List.fold_left (fun acc dst -> (src, dst) :: acc) acc succs)
    net.succ_map []
  |> List.rev

let total_hop_count net =
  List.fold_left
    (fun acc (f : Flow.t) -> acc + List.length f.route)
    0 net.flow_list

(* Kahn's algorithm over the server set [ids], where edges from
   outside the set do not count: the set's sources in ascending order,
   and [release], which takes a server out and prepends to [acc] the
   successors it leaves with no remaining predecessor in the set. *)
let kahn_start net ids =
  let indegree = Hashtbl.create (max 16 (List.length ids)) in
  List.iter (fun id -> Hashtbl.replace indegree id 0) ids;
  List.iter
    (fun id ->
      List.iter
        (fun b ->
          match Hashtbl.find_opt indegree b with
          | Some d -> Hashtbl.replace indegree b (d + 1)
          | None -> ())
        (successors net id))
    ids;
  let release acc id =
    List.fold_left
      (fun acc b ->
        match Hashtbl.find_opt indegree b with
        | Some d ->
            Hashtbl.replace indegree b (d - 1);
            if d = 1 then b :: acc else acc
        | None -> acc)
      acc (successors net id)
  in
  let ready =
    List.filter (fun id -> Hashtbl.find indegree id = 0) ids
    |> List.sort compare
  in
  (ready, release)

let server_ids net = Int_map.fold (fun id _ acc -> id :: acc) net.servers []

let topological_order ?servers net =
  let ids = match servers with Some ids -> ids | None -> server_ids net in
  let ready, release = kahn_start net ids in
  let rec kahn order = function
    | [] -> List.rev order
    | id :: rest ->
        kahn (id :: order) (List.sort compare (release [] id) @ rest)
  in
  let order = kahn [] ready in
  if List.compare_lengths order ids <> 0 then raise Cyclic else order

let levels net =
  (* Longest-path layering: level 0 is the sources, and every edge goes
     from a strictly lower level to a strictly higher one, so each
     level is an antichain of the routing DAG.  A node becomes ready in
     the Kahn wave after its last predecessor's, so the waves are
     exactly the longest-path levels; one pass, O(V + E). *)
  let ready, release = kahn_start net (server_ids net) in
  let count = ref 0 in
  let rec walk acc = function
    | [] -> List.rev acc
    | frontier ->
        count := !count + List.length frontier;
        walk (frontier :: acc)
          (List.fold_left release [] frontier |> List.sort compare)
  in
  let ls = walk [] ready in
  if !count <> size net then raise Cyclic else ls

let widest_antichain net =
  List.fold_left (fun acc l -> max acc (List.length l)) 0 (levels net)

let is_feedforward net =
  match topological_order net with _ -> true | exception Cyclic -> false

let utilization net sid =
  let s = server net sid in
  let input_rate =
    List.fold_left (fun acc f -> acc +. Flow.rate f) 0. (flows_at net sid)
  in
  input_rate /. s.rate

let max_utilization net =
  Int_map.fold
    (fun id _ acc -> Float.max acc (utilization net id))
    net.servers 0.

let stable net =
  let open Float_ops in
  max_utilization net <~ 1.

let with_flows net flows = make ~servers:(servers net) ~flows

let restrict net ~flow_ids =
  let keep =
    List.filter_map
      (fun id -> Int_map.find_opt id net.flow_map)
      (List.sort_uniq compare flow_ids)
  in
  let wanted = Hashtbl.create 64 in
  List.iter
    (fun (f : Flow.t) ->
      List.iter (fun sid -> Hashtbl.replace wanted sid ()) f.route)
    keep;
  let sub_servers =
    List.filter (fun (s : Server.t) -> Hashtbl.mem wanted s.id) (servers net)
  in
  make ~servers:sub_servers ~flows:keep

let pp ppf net =
  Format.fprintf ppf "network: %d servers, %d flows, max util %.3f" (size net)
    (List.length net.flow_list) (max_utilization net)
