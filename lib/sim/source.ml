type model =
  | Greedy of { start : float }
  | Periodic of { start : float; interval : float }
  | On_off of { start : float; on : float; off : float }

let check_packet_size ~sigma ~rho l =
  if l <= 0. then invalid_arg "Source.check_packet_size: packet_size <= 0";
  if l > sigma +. 1e-12 && rho <= 0. then
    invalid_arg "Source.check_packet_size: packet larger than bucket, no refill";
  if l > sigma +. 1e-12 then
    invalid_arg "Source.check_packet_size: packet_size must not exceed sigma"

(* Token-bucket state machine.  Tokens fill at [rho] up to [sigma];
   each packet consumes [l] tokens and respects the peak spacing
   [l / peak].  Consuming at emission time guarantees the packetized
   stream satisfies N (s, t] <= sigma + rho (t - s) for every window
   (the peak branch of the fluid envelope cannot be met by impulses;
   validation therefore analyzes against the peak-free envelope). *)
let emission_times model ~sigma ~rho ~peak ~packet_size:l ~horizon =
  check_packet_size ~sigma ~rho l;
  let start =
    match model with
    | Greedy { start } | Periodic { start; _ } | On_off { start; _ } -> start
  in
  let min_spacing = if peak = infinity then 0. else l /. peak in
  (* Earliest time >= [t] that lies in an emission window. *)
  let gate t =
    match model with
    | Greedy _ -> t
    | Periodic _ -> t
    | On_off { start; on; off } ->
        if t < start then start
        else
          let cycle = on +. off in
          let phase = Float.rem (t -. start) cycle in
          if phase <= on then t else t +. (cycle -. phase)
  in
  let periodic_floor k =
    match model with
    | Periodic { start; interval } -> start +. (float_of_int (k - 1) *. interval)
    | Greedy _ | On_off _ -> neg_infinity
  in
  let rec loop acc k tokens t_state last_emit =
    let t_tokens =
      if tokens >= l then t_state
      else if rho <= 0. then infinity
      else t_state +. ((l -. tokens) /. rho)
    in
    let t_min =
      Float.max t_tokens
        (Float.max (last_emit +. min_spacing) (periodic_floor k))
    in
    let t_emit = gate t_min in
    if t_emit > horizon || t_emit = infinity then List.rev acc
    else
      let refilled = Float.min sigma (tokens +. (rho *. (t_emit -. t_state))) in
      loop (t_emit :: acc) (k + 1) (refilled -. l) t_emit t_emit
  in
  loop [] 1 sigma start (start -. min_spacing)
