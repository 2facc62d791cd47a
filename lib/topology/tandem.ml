type t = {
  network : Network.t;
  conn0 : Flow.t;
  n : int;
  mid_servers : int list;
}

let make ~n ~utilization ?(sigma = 1.) ?(peak = 1.)
    ?(discipline = Discipline.Fifo) () =
  if n < 2 then invalid_arg "Tandem.make: need at least 2 switches";
  if utilization <= 0. || utilization >= 1. then
    invalid_arg "Tandem.make: utilization must be in (0, 1)";
  if sigma <= 0. then invalid_arg "Tandem.make: sigma <= 0";
  let rho = utilization /. 4. in
  let source () = Arrival.token_bucket ~peak ~sigma ~rho () in
  let mid k = k in
  let upper_exit k = n + k in
  let lower_exit k = (2 * n) + k in
  let servers =
    List.init n (fun k ->
        Server.make ~id:(mid k) ~name:(Printf.sprintf "mid%d" k) ~rate:1.
          ~discipline ())
    @ List.init n (fun k ->
          Server.make ~id:(upper_exit k) ~name:(Printf.sprintf "upx%d" k)
            ~rate:1. ~discipline ())
    @ List.init n (fun k ->
          Server.make ~id:(lower_exit k) ~name:(Printf.sprintf "lox%d" k)
            ~rate:1. ~discipline ())
  in
  let conn0 =
    Flow.make ~id:0 ~name:"conn0" ~arrival:(source ())
      ~route:(List.init n mid) ~priority:1 ()
  in
  let a_flow k =
    Flow.make ~id:((2 * k) + 1)
      ~name:(Printf.sprintf "A%d" k)
      ~arrival:(source ())
      ~route:[ mid k; upper_exit k ]
      ~priority:0 ()
  in
  let b_flow k =
    let mids = if k + 1 <= n - 1 then [ mid k; mid (k + 1) ] else [ mid k ] in
    Flow.make ~id:((2 * k) + 2)
      ~name:(Printf.sprintf "B%d" k)
      ~arrival:(source ())
      ~route:(mids @ [ lower_exit k ])
      ~priority:2 ()
  in
  let flows =
    conn0 :: List.concat (List.init n (fun k -> [ a_flow k; b_flow k ]))
  in
  let network = Network.make ~servers ~flows in
  { network; conn0; n; mid_servers = List.init n mid }
