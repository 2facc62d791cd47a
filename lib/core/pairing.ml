type subnet = Single of int | Pair of int * int
type t = subnet list
type strategy = Along_route of int | Greedy | Singletons

let servers_of = function Single s -> [ s ] | Pair (u, v) -> [ u; v ]

let pp ppf pairing =
  let pp_subnet ppf = function
    | Single s -> Format.fprintf ppf "{%d}" s
    | Pair (u, v) -> Format.fprintf ppf "{%d,%d}" u v
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    pp_subnet ppf pairing

(* Map each server to the index of its subnet; raise on bad covers. *)
let subnet_assignment net subnets =
  let assignment = Hashtbl.create 32 in
  List.iteri
    (fun i subnet ->
      List.iter
        (fun s ->
          ignore (Network.server net s);
          if Hashtbl.mem assignment s then
            invalid_arg
              (Printf.sprintf "Pairing: server %d appears in two subnets" s);
          Hashtbl.replace assignment s i)
        (servers_of subnet))
    subnets;
  List.iter
    (fun (s : Server.t) ->
      if not (Hashtbl.mem assignment s.id) then
        invalid_arg
          (Printf.sprintf "Pairing: server %d not covered by any subnet" s.id))
    (Network.servers net);
  assignment

(* Topologically order the contracted (subnet) graph; raise
   Network.Cyclic when contraction created a cycle. *)
let order_subnets net subnets =
  let assignment = subnet_assignment net subnets in
  let arr = Array.of_list subnets in
  let n = Array.length arr in
  let contracted_edges =
    Network.edges net
    |> List.filter_map (fun (a, b) ->
           let ia = Hashtbl.find assignment a
           and ib = Hashtbl.find assignment b in
           if ia = ib then None else Some (ia, ib))
    |> List.sort_uniq compare
  in
  let indegree = Array.make n 0 in
  List.iter (fun (_, b) -> indegree.(b) <- indegree.(b) + 1) contracted_edges;
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indegree.(i) = 0 then ready := i :: !ready
  done;
  let rec kahn order = function
    | [] -> List.rev order
    | i :: rest ->
        let next =
          List.fold_left
            (fun acc (a, b) ->
              if a = i then begin
                indegree.(b) <- indegree.(b) - 1;
                if indegree.(b) = 0 then b :: acc else acc
              end
              else acc)
            [] contracted_edges
        in
        kahn (i :: order) (List.sort compare next @ rest)
  in
  let order = kahn [] !ready in
  if List.length order <> n then raise Network.Cyclic;
  List.map (fun i -> arr.(i)) order

(* A pair is only meaningful when some flow rides the edge u -> v. *)
let check_pair_has_edge net = function
  | Single _ -> ()
  | Pair (u, v) ->
      if not (List.mem v (Network.successors net u)) then
        invalid_arg
          (Printf.sprintf
             "Pairing: no flow traverses servers %d -> %d consecutively" u v)

let validate net subnets =
  List.iter (check_pair_has_edge net) subnets;
  (* The supplied list must itself be a valid processing order: every
     edge into a subnet must come from an earlier subnet.  That also
     proves the contracted graph acyclic. *)
  let position = subnet_assignment net subnets in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find position a and ib = Hashtbl.find position b in
      if ia > ib then
        invalid_arg
          (Printf.sprintf
             "Pairing: subnet of server %d is listed after its downstream \
              server %d" a b))
    (Network.edges net)

let singletons net =
  List.map (fun (s : Server.t) -> Single s.id) (Network.servers net)

let along_route net flow_id =
  (* [Network.flow] itself raises a descriptive [Invalid_argument] for
     an unknown id. *)
  let f = Network.flow net flow_id in
  let rec pair_up = function
    | u :: v :: rest -> Pair (u, v) :: pair_up rest
    | [ u ] -> [ Single u ]
    | [] -> []
  in
  let on_route = pair_up f.route in
  let covered =
    List.concat_map servers_of on_route |> List.sort_uniq compare
  in
  let rest =
    Network.servers net
    |> List.filter_map (fun (s : Server.t) ->
           if List.mem s.id covered then None else Some (Single s.id))
  in
  on_route @ rest

(* Shared transit count: flows riding the edge u -> v. *)
let transit_count net (u, v) =
  Network.flows net
  |> List.filter (fun f -> List.mem (u, v) (Flow.hop_pairs f))
  |> List.length

let singletons_of_unpaired net paired chosen =
  let in_chosen =
    List.concat_map servers_of chosen |> List.sort_uniq compare
  in
  Network.servers net
  |> List.filter_map (fun (s : Server.t) ->
         if Hashtbl.mem paired s.id || List.mem s.id in_chosen then None
         else Some (Single s.id))

let greedy net =
  let order = Network.topological_order net in
  let paired = Hashtbl.create 32 in
  let chosen = ref [] in
  let acyclic_with extra =
    match order_subnets net (extra @ singletons_of_unpaired net paired extra) with
    | _ -> true
    | exception Network.Cyclic -> false
  in
  List.iter
    (fun u ->
      if not (Hashtbl.mem paired u) then begin
        let candidates =
          Network.edges net
          |> List.filter (fun (a, b) ->
                 a = u && (not (Hashtbl.mem paired b)) && b <> u)
          |> List.sort (fun e1 e2 ->
                 compare (transit_count net e2) (transit_count net e1))
        in
        let rec try_candidates = function
          | (a, b) :: rest ->
              let tentative = Pair (a, b) :: !chosen in
              if acyclic_with tentative then begin
                chosen := tentative;
                Hashtbl.replace paired a ();
                Hashtbl.replace paired b ()
              end
              else try_candidates rest
          | [] -> ()
        in
        try_candidates candidates
      end)
    order;
  let subnets = !chosen @ singletons_of_unpaired net paired !chosen in
  order_subnets net subnets

let build net strategy =
  let subnets =
    match strategy with
    | Singletons -> singletons net
    | Along_route flow_id -> along_route net flow_id
    | Greedy -> greedy net
  in
  order_subnets net subnets
