module Int_map = Map.Make (Int)

(* Servers live in an array sorted by id, and each per-server index is
   an array over the same slots.  [slot] finds a server's slot: at once
   when ids are dense from 0 (the generators' case), by binary search
   otherwise.  Updates copy the slot arrays, so a value never changes
   once built. *)
type t = {
  servers : Server.t array;  (* ascending id *)
  flow_list : Flow.t list;
  flow_map : Flow.t Int_map.t;
  (* Flows crossing each server, in flow-list order: the analyses query
     [flows_at] once per server per pass, and the O(flows) list filter
     it used to be dominates everything past a few hundred servers. *)
  flows_by_slot : Flow.t list array;
  (* Routing-DAG adjacency (deduplicated successor ids, ascending), the
     one-pass replacement for filtering the global edge list. *)
  succ_by_slot : int list array;
}

exception Cyclic

(* The slot of server [id], or -1 when there is none. *)
let slot_in (servers : Server.t array) id =
  let n = Array.length servers in
  if id >= 0 && id < n && servers.(id).id = id then id
  else
    let rec search lo hi =
      (* the slot, if any, is in [lo, hi) *)
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let m = servers.(mid).id in
        if m = id then mid
        else if m < id then search (mid + 1) hi
        else search lo mid
    in
    search 0 n

let slot net id = slot_in net.servers id

(* [visit a b] for each consecutive pair (a, b) of a route. *)
let rec iter_hops visit = function
  | a :: (b :: _ as rest) ->
      visit a b;
      iter_hops visit rest
  | _ -> ()

(* The checks a flow passes on its way into a network, shared by the
   bulk constructor and [add_flow] so the two paths cannot drift.  The
   messages keep their [Network.make] prefix on both paths: the serve
   protocol reports them verbatim as an admit's bad_request detail. *)
let check_flow servers flow_map (f : Flow.t) =
  List.iter
    (fun sid ->
      if slot_in servers sid < 0 then
        invalid_arg
          (Printf.sprintf "Network.make: flow %s routes via unknown server %d"
             f.name sid))
    f.route;
  if Int_map.mem f.id flow_map then
    invalid_arg (Printf.sprintf "Network.make: duplicate flow id %d" f.id)

(* Every index in one pass over all routes, on servers already sorted
   and checked. *)
let build servers flows =
  let flow_map =
    List.fold_left
      (fun acc (f : Flow.t) ->
        check_flow servers acc f;
        Int_map.add f.id f acc)
      Int_map.empty flows
  in
  let n = Array.length servers in
  let flows_by_slot = Array.make n [] and succ_by_slot = Array.make n [] in
  (* Cons while walking the flows backwards, so each server's flows come
     out in flow-list order. *)
  List.iter
    (fun (f : Flow.t) ->
      List.iter
        (fun sid ->
          let s = slot_in servers sid in
          flows_by_slot.(s) <- f :: flows_by_slot.(s))
        f.route;
      iter_hops
        (fun a b ->
          let s = slot_in servers a in
          succ_by_slot.(s) <- b :: succ_by_slot.(s))
        f.route)
    (List.rev flows);
  Array.iteri
    (fun s succs ->
      if succs <> [] then succ_by_slot.(s) <- List.sort_uniq Int.compare succs)
    succ_by_slot;
  { servers; flow_list = flows; flow_map; flows_by_slot; succ_by_slot }

let make ~servers ~flows =
  let servers = Array.of_list servers in
  Array.stable_sort
    (fun (a : Server.t) (b : Server.t) -> Int.compare a.id b.id)
    servers;
  for s = 1 to Array.length servers - 1 do
    if servers.(s).id = servers.(s - 1).id then
      invalid_arg
        (Printf.sprintf "Network.make: duplicate server id %d" servers.(s).id)
  done;
  build servers flows

let rec insert_sorted (x : int) = function
  | y :: rest when y < x -> y :: insert_sorted x rest
  | y :: _ as l when y = x -> l
  | l -> x :: l

let add_flow net (f : Flow.t) =
  check_flow net.servers net.flow_map f;
  let flows_by_slot = Array.copy net.flows_by_slot in
  List.iter
    (fun sid ->
      let s = slot net sid in
      flows_by_slot.(s) <- flows_by_slot.(s) @ [ f ])
    f.route;
  let succ_by_slot = Array.copy net.succ_by_slot in
  iter_hops
    (fun a b ->
      let s = slot net a in
      succ_by_slot.(s) <- insert_sorted b succ_by_slot.(s))
    f.route;
  {
    net with
    flow_list = net.flow_list @ [ f ];
    flow_map = Int_map.add f.id f net.flow_map;
    flows_by_slot;
    succ_by_slot;
  }

let remove_flow net id =
  match Int_map.find_opt id net.flow_map with
  | None ->
      invalid_arg (Printf.sprintf "Network.remove_flow: unknown flow id %d" id)
  | Some f ->
      let other (g : Flow.t) = g.id <> id in
      let flows_by_slot = Array.copy net.flows_by_slot in
      List.iter
        (fun sid ->
          let s = slot net sid in
          flows_by_slot.(s) <- List.filter other flows_by_slot.(s))
        f.route;
      (* Every flow using edge (a, b) crosses a, so the edge survives
         iff a remaining flow at a continues to b. *)
      let succ_by_slot = Array.copy net.succ_by_slot in
      iter_hops
        (fun a b ->
          let s = slot net a in
          let continues (g : Flow.t) =
            match Flow.next_hop g a with Some c -> c = b | None -> false
          in
          if not (List.exists continues flows_by_slot.(s)) then
            succ_by_slot.(s) <- List.filter (fun c -> c <> b) succ_by_slot.(s))
        f.route;
      {
        net with
        flow_list = List.filter other net.flow_list;
        flow_map = Int_map.remove id net.flow_map;
        flows_by_slot;
        succ_by_slot;
      }

let server net id =
  let s = slot net id in
  if s < 0 then
    invalid_arg (Printf.sprintf "Network.server: unknown server id %d" id)
  else net.servers.(s)

let servers net = Array.to_list net.servers
let flows net = net.flow_list

let flow_opt net id = Int_map.find_opt id net.flow_map

let flow net id =
  match flow_opt net id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Network.flow: unknown flow id %d" id)

let by_flow net f =
  List.map (fun (fl : Flow.t) -> (fl.id, f fl.id)) net.flow_list
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let size net = Array.length net.servers

let flows_at net sid =
  let s = slot net sid in
  if s < 0 then [] else net.flows_by_slot.(s)

let successors net sid =
  let s = slot net sid in
  if s < 0 then [] else net.succ_by_slot.(s)

let edges net =
  (* Slots run in ascending id order with ascending successor lists, so
     this is the lexicographically sorted, deduplicated edge list. *)
  let acc = ref [] in
  for s = Array.length net.servers - 1 downto 0 do
    let src = net.servers.(s).id in
    acc := List.fold_right (fun dst acc -> (src, dst) :: acc) net.succ_by_slot.(s) !acc
  done;
  !acc

let total_hop_count net =
  List.fold_left
    (fun acc (f : Flow.t) -> acc + List.length f.route)
    0 net.flow_list

let kahn n iter_succ =
  let indegree = Array.make n 0 in
  let count_in j = indegree.(j) <- indegree.(j) + 1 in
  for i = 0 to n - 1 do
    iter_succ i count_in
  done;
  let released = ref [] in
  let release j =
    indegree.(j) <- indegree.(j) - 1;
    if indegree.(j) = 0 then released := j :: !released
  in
  let rec go order count = function
    | [] -> if count < n then raise Cyclic else List.rev order
    | i :: rest ->
        released := [];
        iter_succ i release;
        go (i :: order) (count + 1) (List.sort Int.compare !released @ rest)
  in
  let sources = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then sources := i :: !sources
  done;
  go [] 0 !sources

(* [visit] on the slot of each server id of the list: successor ids
   become slots as the sort reads them, with no per-call copy of the
   lists and no closure per node. *)
let rec visit_slots net visit = function
  | [] -> ()
  | b :: rest ->
      visit (slot net b);
      visit_slots net visit rest

let iter_successor_slots net s visit =
  visit_slots net visit net.succ_by_slot.(s)

let topological_order ?servers net =
  match servers with
  | None ->
      let order = kahn (size net) (iter_successor_slots net) in
      List.map (fun s -> net.servers.(s).id) order
  | Some ids ->
      (* only the listed servers are visited, so an online engine pays
         for its cone and not for the network *)
      let ids = Array.of_list (List.sort Int.compare ids) in
      let index = Hashtbl.create (max 16 (Array.length ids)) in
      Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
      let succ =
        Array.map
          (fun id ->
            List.filter_map (Hashtbl.find_opt index) (successors net id))
          ids
      in
      List.map (Array.get ids)
        (kahn (Array.length ids) (fun i visit -> List.iter visit succ.(i)))

let levels net =
  (* Longest-path layering: level 0 is the sources, and every edge goes
     from a strictly lower level to a strictly higher one, so each
     level is an antichain of the routing DAG.  One pass over a
     topological order, O(V + E). *)
  let iter_succ = iter_successor_slots net in
  let depth = Array.make (size net) 0 in
  let below = ref 0 in
  let deepen b = depth.(b) <- Int.max depth.(b) !below in
  List.iter
    (fun s ->
      below := depth.(s) + 1;
      iter_succ s deepen)
    (kahn (size net) iter_succ);
  let ls = Array.make (Array.fold_left Int.max (-1) depth + 1) [] in
  for s = size net - 1 downto 0 do
    ls.(depth.(s)) <- net.servers.(s).id :: ls.(depth.(s))
  done;
  Array.to_list ls

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
  Array.fold_left
    (fun acc (s : Server.t) -> Float.max acc (utilization net s.id))
    0. net.servers

let stable net =
  let open Float_ops in
  max_utilization net <~ 1.

let with_flows net flows = build net.servers flows

let restrict net ~flow_ids =
  let keep =
    List.filter_map
      (fun id -> Int_map.find_opt id net.flow_map)
      (List.sort_uniq Int.compare flow_ids)
  in
  let wanted = Array.make (size net) false in
  List.iter
    (fun (f : Flow.t) ->
      List.iter (fun sid -> wanted.(slot net sid) <- true) f.route)
    keep;
  let sub_servers =
    List.filter (fun (s : Server.t) -> wanted.(slot net s.id)) (servers net)
  in
  make ~servers:sub_servers ~flows:keep

let pp ppf net =
  Format.fprintf ppf "network: %d servers, %d flows, max util %.3f" (size net)
    (List.length net.flow_list) (max_utilization net)
