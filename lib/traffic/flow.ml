type t = {
  id : int;
  name : string;
  arrival : Arrival.t;
  route : int list;
  deadline : float option;
  priority : int;
  weight : float;
  buffer : float option;
}

let make ~id ?name ~arrival ~route ?deadline ?(priority = 0) ?(weight = 1.)
    ?buffer () =
  if route = [] then invalid_arg "Flow.make: empty route";
  let sorted = List.sort_uniq compare route in
  if List.length sorted <> List.length route then
    invalid_arg "Flow.make: route visits a server twice";
  (* [not (x > 0.)] rather than [x <= 0.], which is false for NaN. *)
  if not (weight > 0.) then invalid_arg "Flow.make: weight must be > 0";
  (match deadline with
  | Some d when not (d > 0.) -> invalid_arg "Flow.make: deadline must be > 0"
  | _ -> ());
  (match buffer with
  | Some b when not (b > 0.) -> invalid_arg "Flow.make: buffer must be > 0"
  | _ -> ());
  let name = match name with Some n -> n | None -> "flow" ^ string_of_int id in
  { id; name; arrival; route; deadline; priority; weight; buffer }

let source_curve f = Arrival.curve f.arrival
let rate f = Arrival.rate f.arrival
let burst f = Arrival.burst f.arrival

let rec next_in_list s = function
  | a :: (b :: _ as rest) -> if a = s then Some b else next_in_list s rest
  | _ -> None

let next_hop f s = next_in_list s f.route
let prev_hop f s = next_in_list s (List.rev f.route)

let first_hop f = List.hd f.route

let hop_pairs f =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  pairs f.route
