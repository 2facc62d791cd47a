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
  let succ =
    Array.mapi
      (fun i subnet ->
        List.concat_map (Network.successors net) (servers_of subnet)
        |> List.filter_map (fun b ->
               let j = Hashtbl.find assignment b in
               if j = i then None else Some j)
        |> List.sort_uniq Int.compare)
      arr
  in
  List.map (Array.get arr)
    (Network.kahn (Array.length arr) (fun i visit -> List.iter visit succ.(i)))

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

(* The servers [covered] leaves out, as singletons in ascending id
   order. *)
let singletons_except covered net =
  List.filter_map
    (fun (s : Server.t) -> if covered s.id then None else Some (Single s.id))
    (Network.servers net)

(* Whether contracting the edge u -> v between two unpaired servers
   into the pairs chosen so far ([partner] maps each paired server to
   the other) closes a cycle: whether v is reachable there from another
   successor of u. *)
let closes_cycle net partner u v =
  let seen = Hashtbl.create 16 in
  let rec search = function
    | [] -> false
    | s :: _ when s = v -> true
    | s :: rest when Hashtbl.mem seen s -> search rest
    | s :: rest ->
        (* a pair is one node of the contraction: enter it whole *)
        let node =
          match Hashtbl.find_opt partner s with
          | Some p -> [ s; p ]
          | None -> [ s ]
        in
        List.iter (fun s -> Hashtbl.replace seen s ()) node;
        search (List.concat_map (Network.successors net) node @ rest)
  in
  search (List.filter (fun w -> w <> v) (Network.successors net u))

let pair partner u v =
  Hashtbl.replace partner u v;
  Hashtbl.replace partner v u

let along_route net flow_id =
  (* [Network.flow] itself raises a descriptive [Invalid_argument] for
     an unknown id. *)
  let f = Network.flow net flow_id in
  let partner = Hashtbl.create 16 in
  (* A route pair that another path joins would close a cycle: its
     first server stays single, in its route position. *)
  let rec walk = function
    | u :: v :: rest when not (closes_cycle net partner u v) ->
        pair partner u v;
        Pair (u, v) :: walk rest
    | u :: rest -> Single u :: walk rest
    | [] -> []
  in
  let on_route = walk f.route in
  on_route @ singletons_except (fun s -> List.mem s f.route) net

(* u's unpaired successors, the most transit flows first; ties stay in
   ascending id order, as the sort is stable. *)
let candidates net partner u =
  let next =
    List.filter_map (fun f -> Flow.next_hop f u) (Network.flows_at net u)
  in
  Network.successors net u
  |> List.filter (fun v -> not (Hashtbl.mem partner v))
  |> List.map (fun v -> (List.length (List.filter (Int.equal v) next), v))
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.map snd

let greedy net =
  let partner = Hashtbl.create 64 in
  let chosen = ref [] in
  List.iter
    (fun u ->
      if not (Hashtbl.mem partner u) then
        match
          List.find_opt
            (fun v -> not (closes_cycle net partner u v))
            (candidates net partner u)
        with
        | Some v ->
            pair partner u v;
            chosen := Pair (u, v) :: !chosen
        | None -> ())
    (Network.topological_order net);
  order_subnets net (!chosen @ singletons_except (Hashtbl.mem partner) net)

let build net strategy =
  let subnets =
    match strategy with
    | Singletons -> singletons_except (fun _ -> false) net
    | Along_route flow_id -> along_route net flow_id
    | Greedy -> greedy net
  in
  order_subnets net subnets
