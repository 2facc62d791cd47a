type mode = Delta | Full of Engine.method_

(* Full re-analysis fallback: every admit re-derives the complete
   bound table through the batch admission kernel.  The analysis of
   the current population is kept until a teardown changes it, so a
   query after an accepted admit reads the admit's pass. *)
type full = {
  f_options : Options.t;
  f_servers : Server.t list;
  f_method : Engine.method_;
  mutable f_flows : Flow.t list; (* base ++ admitted, admission order *)
  mutable f_analysis : Engine.analysis option; (* of [f_flows], once run *)
  mutable f_admits : int;
  mutable f_rejects : int;
  mutable f_teardowns : int;
  mutable f_cone : int; (* cumulative servers re-analyzed *)
}

type engine = E_delta of Delta_engine.t | E_full of full
type t = { engine : engine }

exception Bad_request of string

let create ?(options = Options.default) ~mode ~servers ~flows () =
  match mode with
  | Delta -> { engine = E_delta (Delta_engine.create ~options ~servers ~flows ()) }
  | Full method_ ->
      (* Validate the initial population the same way the delta engine
         does (duplicate ids, unknown route servers, cycles). *)
      ignore (Network.topological_order (Network.make ~servers ~flows));
      {
        engine =
          E_full
            {
              f_options = options;
              f_servers = servers;
              f_method = method_;
              f_flows = flows;
              f_analysis = None;
              f_admits = 0;
              f_rejects = 0;
              f_teardowns = 0;
              f_cone = 0;
            };
      }

(* ------------------------------------------------------------------ *)
(* Request decoding                                                     *)
(* ------------------------------------------------------------------ *)

let field name conv j =
  match Sjson.member name j with
  | None -> None
  | Some v -> (
      match conv v with
      | Some x -> Some x
      | None -> raise (Bad_request (Printf.sprintf "invalid %S field" name)))

let req name conv j =
  match field name conv j with
  | Some x -> x
  | None -> raise (Bad_request (Printf.sprintf "missing or invalid %S field" name))

let to_route j =
  match Sjson.to_list j with
  | None -> None
  | Some elems ->
      let ids = List.filter_map Sjson.to_int elems in
      if List.length ids = List.length elems then Some ids else None

let flow_of_json j =
  match j with
  | Sjson.Obj _ ->
      let id = req "id" Sjson.to_int j in
      let sigma = req "sigma" Sjson.to_float j in
      let rho = req "rho" Sjson.to_float j in
      let route = req "route" to_route j in
      let peak = field "peak" Sjson.to_float j in
      let deadline = field "deadline" Sjson.to_float j in
      let buffer = field "buffer" Sjson.to_float j in
      let priority = field "priority" Sjson.to_int j in
      let weight = field "weight" Sjson.to_float j in
      let name = field "name" Sjson.to_string j in
      let arrival = Arrival.token_bucket ?peak ~sigma ~rho () in
      Flow.make ~id ?name ~arrival ~route ?deadline ?buffer ?priority ?weight ()
  | _ -> raise (Bad_request "\"flow\" must be an object")

(* ------------------------------------------------------------------ *)
(* Response encoding                                                    *)
(* ------------------------------------------------------------------ *)

let obj fields = Sjson.render (Sjson.Obj fields)
let ok b = ("ok", Sjson.Bool b)
let str k v = (k, Sjson.Str v)
let int k v = (k, Sjson.num_of_int v)
let delta_fields (s : Delta_engine.op_stats) =
  [ int "cone_nodes" s.cone_nodes; int "reused_nodes" s.reused_nodes ]

let reason_fields = function
  | Admission.No_deadline -> [ str "reason" "no_deadline" ]
  | Admission.Cyclic_route -> [ str "reason" "cyclic_route" ]
  | Admission.Deadline_violated { flow; bound; deadline } ->
      [
        str "reason" "deadline_violated";
        int "violating_flow" flow;
        ("violating_bound", Sjson.float_repr bound);
        ("violating_deadline", Sjson.Num deadline);
      ]
  | Admission.Buffer_violated { flow; server; backlog; buffer } ->
      [
        str "reason" "buffer_violated";
        int "violating_flow" flow;
        int "violating_server" server;
        ("violating_backlog", Sjson.float_repr backlog);
        ("violating_buffer", Sjson.Num buffer);
      ]

let bad_request msg = obj [ ok false; str "error" "bad_request"; str "detail" msg ]

let unknown_flow op id =
  obj [ ok false; str "op" op; int "flow" id; str "error" "unknown_flow" ]

(* ------------------------------------------------------------------ *)
(* Operations                                                           *)
(* ------------------------------------------------------------------ *)

let flow_present t id =
  match t.engine with
  | E_delta e -> Delta_engine.query e id <> None
  | E_full f -> List.exists (fun (g : Flow.t) -> g.Flow.id = id) f.f_flows

let full_op_fields f =
  let n = List.length f.f_servers in
  f.f_cone <- f.f_cone + n;
  [ int "cone_nodes" n; int "reused_nodes" 0 ]

let do_admit t (cand : Flow.t) =
  let head = [ str "op" "admit"; int "flow" cand.id ] in
  if flow_present t cand.id then
    obj ((ok false :: head) @ [ str "error" "duplicate_flow" ])
  else
    match t.engine with
    | E_delta e -> (
        match Delta_engine.admit e cand with
        | Delta_engine.Admitted { bound; stats } ->
            let backlog = Delta_engine.flow_backlog e cand.id in
            obj
              ((ok true :: head)
              @ ("bound", Sjson.float_repr bound)
                :: ("backlog", Sjson.float_repr backlog)
                :: delta_fields stats)
        | Delta_engine.Rejected { reason; stats } ->
            obj
              ((ok false :: head)
              @ (str "error" "rejected" :: reason_fields reason)
              @ delta_fields stats))
    | E_full f -> (
        match
          Admission.decide_one ~options:f.f_options ~servers:f.f_servers
            ~flows:f.f_flows ~candidate:cand ~method_:f.f_method ()
        with
        | Admission.Accepted { bounds; analysis } ->
            f.f_flows <- f.f_flows @ [ cand ];
            f.f_analysis <- Some analysis;
            f.f_admits <- f.f_admits + 1;
            let bound = List.assoc cand.id bounds in
            let backlog = Engine.flow_backlog analysis cand.id in
            obj
              ((ok true :: head)
              @ ("bound", Sjson.float_repr bound)
                :: ("backlog", Sjson.float_repr backlog)
                :: full_op_fields f)
        | Admission.Rejected reason ->
            f.f_rejects <- f.f_rejects + 1;
            obj
              ((ok false :: head)
              @ (str "error" "rejected" :: reason_fields reason)
              @ full_op_fields f))

let do_teardown t id =
  match t.engine with
  | E_delta e -> (
      match Delta_engine.teardown e id with
      | Error `Unknown_flow -> unknown_flow "teardown" id
      | Ok stats ->
          obj
            ((ok true :: [ str "op" "teardown"; int "flow" id ])
            @ delta_fields stats))
  | E_full f ->
      if not (flow_present t id) then unknown_flow "teardown" id
      else begin
        f.f_flows <- List.filter (fun (g : Flow.t) -> g.Flow.id <> id) f.f_flows;
        f.f_analysis <- None;
        f.f_teardowns <- f.f_teardowns + 1;
        obj
          ((ok true :: [ str "op" "teardown"; int "flow" id ])
          @ full_op_fields f)
      end

let query_response (f : Flow.t) bound backlog =
  obj
    [
      ok true;
      str "op" "query";
      int "flow" f.id;
      ("bound", Sjson.float_repr bound);
      ("backlog", Sjson.float_repr backlog);
      ( "deadline",
        match f.deadline with Some d -> Sjson.Num d | None -> Sjson.Null );
      ( "buffer",
        match f.buffer with Some b -> Sjson.Num b | None -> Sjson.Null );
      ("route", Sjson.List (List.map Sjson.num_of_int f.route));
    ]

let do_query t id =
  match t.engine with
  | E_delta e -> (
      match Delta_engine.query e id with
      | None -> unknown_flow "query" id
      | Some (f, bound) -> query_response f bound (Delta_engine.flow_backlog e id))
  | E_full f -> (
      match List.find_opt (fun (g : Flow.t) -> g.Flow.id = id) f.f_flows with
      | None -> unknown_flow "query" id
      | Some flow ->
          let a =
            match f.f_analysis with
            | Some a -> a
            | None ->
                let a =
                  Engine.analyze ~options:f.f_options
                    (Network.make ~servers:f.f_servers ~flows:f.f_flows)
                    f.f_method
                in
                f.f_analysis <- Some a;
                a
          in
          query_response flow (Engine.flow_delay a id) (Engine.flow_backlog a id))

let do_stats t =
  let engine_name, servers, flows, rate, admits, rejects, teardowns, cone, reused
      =
    match t.engine with
    | E_delta e ->
        let s = Delta_engine.stats e in
        ( "delta",
          s.servers,
          s.flows,
          s.admitted_rate,
          s.admits,
          s.rejects,
          s.teardowns,
          s.cone_nodes,
          s.reused_nodes )
    | E_full f ->
        ( "full",
          List.length f.f_servers,
          List.length f.f_flows,
          Propagation.total_rate f.f_flows,
          f.f_admits,
          f.f_rejects,
          f.f_teardowns,
          f.f_cone,
          0 )
  in
  obj
    [
      ok true;
      str "op" "stats";
      str "engine" engine_name;
      (* The engines have one curve representation; the field stays so
         the stats line is byte-stable for existing clients. *)
      str "curve_backend" "pwl";
      int "servers" servers;
      int "flows" flows;
      ("admitted_rate", Sjson.Num rate);
      int "admits" admits;
      int "rejects" rejects;
      int "teardowns" teardowns;
      int "cone_nodes" cone;
      int "reused_nodes" reused;
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

(* Every request must produce a response: an exception escaping the
   dispatch kills the session — and with it every later request on the
   connection.  The two expected failure classes map to [bad_request];
   anything else becomes an [internal_error] response instead of a
   crash.  The [@@lint.exn_barrier] attribute makes the typed linter
   enforce that this closure stays total as operations are added. *)
let handle_line t line =
  (try
     match Sjson.parse line with
     (* well-formed JSON, but an ambiguous request *)
     | exception Sjson.Parse_error msg when String.equal msg Sjson.duplicate_key ->
         bad_request msg
     | exception Sjson.Parse_error msg ->
         obj [ ok false; str "error" "parse_error"; str "detail" msg ]
     | j -> (
         match field "op" Sjson.to_string j with
         | None -> bad_request "missing or invalid \"op\" field"
         | Some op -> (
             match op with
             | "admit" -> (
                 match Sjson.member "flow" j with
                 | None -> raise (Bad_request "missing \"flow\" field")
                 | Some fj -> do_admit t (flow_of_json fj))
             | "teardown" -> do_teardown t (req "flow" Sjson.to_int j)
             | "query" -> do_query t (req "flow" Sjson.to_int j)
             | "stats" -> do_stats t
             | op ->
                 obj [ ok false; str "error" "unknown_op"; str "detail" op ]))
   with
  | Bad_request msg -> bad_request msg
  | Invalid_argument msg -> bad_request msg
  | e ->
      obj
        [ ok false;
          str "error" "internal_error";
          str "detail" (Printexc.to_string e)
        ])
[@@lint.exn_barrier]

let session t ~next ~emit =
  let rec loop () =
    match next () with
    | None -> ()
    | Some line ->
        if String.trim line <> "" then emit (handle_line t line);
        loop ()
  in
  loop ()

let run_channels t ic oc =
  session t
    ~next:(fun () -> In_channel.input_line ic)
    ~emit:(fun resp ->
      output_string oc resp;
      output_char oc '\n';
      flush oc)

(* ------------------------------------------------------------------ *)
(* Socket transports (sequential accept loop)                           *)
(* ------------------------------------------------------------------ *)

let serve_fd t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try run_channels t ic oc with Sys_error _ | End_of_file -> ());
  (* Closing the output channel flushes and closes the shared fd. *)
  close_out_noerr oc

let accept_loop ?(clients = -1) t sock =
  let remaining = ref clients in
  while !remaining <> 0 do
    let fd, _ = Unix.accept sock in
    if !remaining > 0 then decr remaining;
    serve_fd t fd
  done;
  Unix.close sock

let listen_unix ?clients t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  accept_loop ?clients t sock

let listen_tcp ?clients t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  accept_loop ?clients t sock
