(* netcalc — command-line front end.

   Subcommands:
     tandem    delay bounds for Connection 0 of the paper's tandem
     sweep     load sweep over all methods (one figure's worth of data)
     simulate  greedy packet simulation of the tandem, bounds vs observed
     fluid     exact fluid tightness probe (no packetization slack)
     random    analyze a random feedforward network
     analyze   analyze a scenario file (with optional full report)
     ring      fixed-point analysis of a cyclic ring
     sp        static-priority tandem (the Sec. 5 extension)
     dot       emit a routing graph (tandem or corpus family) as Graphviz
     scale     streaming frontier analysis of a corpus-family topology
     admit     batch admission control over a scenario file
     serve     online admission-control service (NDJSON line protocol) *)

open Cmdliner

let hops_arg =
  Arg.(value & opt int 4 & info [ "n"; "hops" ] ~docv:"N"
         ~doc:"Number of 3x3 switches in the tandem.")

let util_arg =
  Arg.(value & opt float 0.6 & info [ "u"; "utilization" ] ~docv:"U"
         ~doc:"Internal link utilization, in (0, 1).")

let sigma_arg =
  Arg.(value & opt float 1. & info [ "sigma" ] ~docv:"S"
         ~doc:"Token bucket burst of every source.")

let peak_arg =
  Arg.(value & opt float 1. & info [ "peak" ] ~docv:"P"
         ~doc:"Source peak rate (use 'inf' semantics with a large value; \
               the paper uses the link rate 1).")

let link_cap_arg =
  Arg.(value & flag & info [ "link-cap" ]
         ~doc:"Enable the link-capacity sharpening (ablation).")

let options_of link_cap =
  if link_cap then Options.sharpened else Options.default

(* The library refused the user's input: an input error, reported on
   stderr with exit 1, where an uncaught exception (exit 125) means a
   bug. *)
let refused report f =
  try f ()
  with Invalid_argument reason ->
    report reason;
    exit 1

(* A generator, or the packet source, refused the user's parameters. *)
let build f = refused (Printf.eprintf "netcalc: %s\n") f

let methods_table net ~flow ~options =
  let tbl =
    Table.create ~header:[ "method"; "delay bound"; "R vs Decomposed" ]
  in
  let c =
    Engine.compare_all ~options ~strategy:(Pairing.Along_route flow) net flow
  in
  let dd = c.decomposed in
  List.iter
    (fun m ->
      let d =
        match (m : Engine.method_) with
        | Decomposed -> c.decomposed
        | Service_curve -> c.service_curve
        | Integrated -> c.integrated
        | Fifo_theta -> c.fifo_theta
      in
      Table.add_row tbl
        [
          Engine.method_name m;
          Table.float_cell d;
          (if m = Engine.Decomposed then "-"
           else Table.float_cell (Engine.relative_improvement dd d));
        ])
    Engine.all_methods;
  tbl

let tandem_cmd =
  let run n u sigma peak link_cap () =
    let t =
      build (fun () -> Tandem.make ~n ~utilization:u ~sigma ~peak ())
    in
    Printf.printf
      "Tandem of %d switches (Fig. 3), U = %g, sigma = %g, peak = %g\n\
       Connection 0 end-to-end delay bounds:\n\n"
      n u sigma peak;
    Table.print (methods_table t.network ~flow:0 ~options:(options_of link_cap))
  in
  ("tandem", "Delay bounds for Connection 0 of the tandem",
   Term.(const run $ hops_arg $ util_arg $ sigma_arg $ peak_arg $ link_cap_arg))

let sweep_cmd =
  let run n sigma peak link_cap () =
    let options = options_of link_cap in
    let tbl =
      Table.create
        ~header:[ "U"; "Decomposed"; "Service Curve"; "Integrated"; "FIFO-theta" ]
    in
    List.iter
      (fun u ->
        let t =
          build (fun () -> Tandem.make ~n ~utilization:u ~sigma ~peak ())
        in
        let c =
          Engine.compare_all ~options ~strategy:(Pairing.Along_route 0)
            t.network 0
        in
        Table.add_floats tbl
          [ u; c.decomposed; c.service_curve; c.integrated; c.fifo_theta ])
      (Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1);
    Printf.printf "Load sweep, tandem n = %d:\n\n" n;
    Table.print tbl
  in
  ("sweep", "Sweep the load and compare all methods",
   Term.(const run $ hops_arg $ sigma_arg $ peak_arg $ link_cap_arg))

let simulate_cmd =
  let horizon_arg =
    Arg.(value & opt float 400. & info [ "horizon" ] ~docv:"T"
           ~doc:"Source emission horizon.")
  in
  let packet_arg =
    Arg.(value & opt float 0.25 & info [ "packet-size" ] ~docv:"L"
           ~doc:"Packet size (must be at most sigma).")
  in
  let run n u sigma horizon packet_size () =
    (* Packetized sources cannot meet a finite fluid peak-rate envelope;
       simulate against peak-free sources (see Validate). *)
    let t =
      build (fun () ->
          Tandem.make ~n ~utilization:u ~sigma ~peak:infinity ())
    in
    let net = t.network in
    let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
    build (fun () ->
        List.iter
          (fun (f : Flow.t) ->
            let sigma, rho, _ = Arrival.token_params f.arrival in
            Source.check_packet_size ~sigma ~rho packet_size)
          (Network.flows net));
    let config = { Sim.default_config with horizon; packet_size } in
    let reports =
      Validate.check ~config ~bounds:(Integrated.all_flow_delays integ) net
    in
    let tbl =
      Table.create
        ~header:[ "flow"; "observed max"; "integrated bound"; "slack" ]
    in
    List.iter
      (fun (r : Validate.report) ->
        Table.add_row tbl
          [
            (Network.flow net r.flow).Flow.name;
            Table.float_cell r.observed;
            Table.float_cell r.bound;
            Table.float_cell r.slack;
          ])
      reports;
    Printf.printf
      "Greedy simulation of the tandem (n = %d, U = %g, peak-free sources):\n\n"
      n u;
    Table.print tbl;
    match Validate.violations reports with
    | [] -> print_endline "\nAll bounds hold."
    | v -> Printf.printf "\n*** %d VIOLATION(S) ***\n" (List.length v)
  in
  ("simulate", "Validate bounds against a greedy simulation",
   Term.(const run $ hops_arg $ util_arg $ sigma_arg $ horizon_arg $ packet_arg))

let random_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let flows_arg =
    Arg.(value & opt int 8 & info [ "flows" ] ~docv:"K" ~doc:"Number of flows.")
  in
  let layers_arg =
    Arg.(value & opt int 3 & info [ "layers" ] ~docv:"L" ~doc:"Layers.")
  in
  let run seed flows layers u link_cap () =
    let net =
      build (fun () ->
          Randomnet.generate
            { Randomnet.default with seed; num_flows = flows; layers;
              utilization = u })
    in
    let options = options_of link_cap in
    let dd = Decomposed.analyze ~options net in
    let integ = Integrated.analyze ~options ~strategy:Pairing.Greedy net in
    let tbl =
      Table.create ~header:[ "flow"; "hops"; "Decomposed"; "Integrated"; "R" ]
    in
    List.iter
      (fun (f : Flow.t) ->
        let d = Decomposed.flow_delay dd f.id in
        let i = Integrated.flow_delay integ f.id in
        Table.add_row tbl
          [
            f.name;
            string_of_int (List.length f.route);
            Table.float_cell d;
            Table.float_cell i;
            Table.float_cell (Engine.relative_improvement d i);
          ])
      (Network.flows net);
    Format.printf "%a@.@." Network.pp net;
    Table.print tbl
  in
  ("random", "Analyze a random feedforward network",
   Term.(const run $ seed_arg $ flows_arg $ layers_arg $ util_arg $ link_cap_arg))

(* A method refused the network (Integrated on a GPS server, say).  The
   library's reason already names the method; print it once. *)
let not_applicable oc method_ reason =
  let name = Engine.method_name method_ in
  let prefix = name ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      let k = String.length prefix in
      String.sub reason k (String.length reason - k)
    else reason
  in
  Printf.fprintf oc "%s: not applicable: %s\n" name reason

(* Decomposed, or its fixed point on cyclic routing, refused the
   scenario (an EDF server carries a flow without a deadline). *)
let decomposed f = refused (not_applicable stderr Engine.Decomposed) f

let analyze_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario file (see the Scenario module for the format).")
  in
  let report_arg =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Print the full per-hop report instead of the summary table.")
  in
  let run file report link_cap () =
    let net =
      try Scenario.load file
      with Scenario.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" file line msg;
        exit 1
    in
    let options = options_of link_cap in
    (* Integrated covers FIFO and static-priority networks only.  On any
       other feedforward scenario the decomposed bounds still stand, and
       the library's reason is printed once. *)
    let integrated () =
      match Integrated.analyze ~options ~strategy:Pairing.Greedy net with
      | integ -> Ok integ
      | exception Invalid_argument reason -> Error reason
    in
    let not_applicable = not_applicable stdout Engine.Integrated in
    if report && Network.is_feedforward net then begin
      print_string
        (Report.decomposed
           (decomposed (fun () -> Decomposed.analyze ~options net)));
      print_newline ();
      match integrated () with
      | Ok integ -> print_string (Report.integrated integ)
      | Error reason -> not_applicable reason
    end
    else if Network.is_feedforward net then begin
      let dd = decomposed (fun () -> Decomposed.analyze ~options net) in
      Format.printf "%a@.@." Network.pp net;
      let integ = integrated () in
      let tbl =
        Table.create
          ~header:[ "flow"; "hops"; "Decomposed"; "Integrated"; "R"; "deadline ok" ]
      in
      List.iter
        (fun (f : Flow.t) ->
          let d = Decomposed.flow_delay dd f.id in
          let i = Result.map (fun t -> Integrated.flow_delay t f.id) integ in
          let cell g =
            match i with Ok i -> Table.float_cell (g i) | Error _ -> "n/a"
          in
          (* The deadline is judged on the Integrated bound where the
             method applies, else on the Decomposed one. *)
          let bound = Result.value i ~default:d in
          Table.add_row tbl
            [
              f.name;
              string_of_int (List.length f.route);
              Table.float_cell d;
              cell Fun.id;
              cell (Engine.relative_improvement d);
              (match f.deadline with
              | None -> "-"
              | Some dl -> if bound <= dl then "yes" else "NO");
            ])
        (Network.flows net);
      Table.print tbl;
      Result.iter_error not_applicable integ
    end
    else begin
      let fp = decomposed (fun () -> Fixed_point.analyze ~options net) in
      Format.printf "%a@.@." Network.pp net;
      print_endline
        "Routing graph has cycles: using the fixed-point (feedback) engine.";
      Printf.printf "Converged: %b after %d iteration(s)\n\n"
        (Fixed_point.converged fp) (Fixed_point.iterations fp);
      let tbl = Table.create ~header:[ "flow"; "hops"; "bound" ] in
      List.iter
        (fun (f : Flow.t) ->
          Table.add_row tbl
            [
              f.name;
              string_of_int (List.length f.route);
              Table.float_cell (Fixed_point.flow_delay fp f.id);
            ])
        (Network.flows net);
      Table.print tbl
    end
  in
  ("analyze", "Analyze a network described in a scenario file",
   Term.(const run $ file_arg $ report_arg $ link_cap_arg))

let ring_cmd =
  let ring_n =
    Arg.(value & opt int 6 & info [ "n" ] ~docv:"N" ~doc:"Ring size.")
  in
  let ring_hops =
    Arg.(value & opt int 3 & info [ "ring-hops" ] ~docv:"H"
           ~doc:"Hops each flow travels around the ring.")
  in
  let run n hops u () =
    let r = build (fun () -> Ring.make ~n ~hops ~utilization:u ()) in
    let fp = Fixed_point.analyze r.network in
    Printf.printf
      "Ring of %d servers, %d hops per flow, U = %g\nConverged: %b after %d \
       iteration(s)\n"
      n hops u (Fixed_point.converged fp) (Fixed_point.iterations fp);
    if Fixed_point.converged fp then
      Printf.printf "Per-flow end-to-end bound: %s\n"
        (Table.float_cell (Fixed_point.flow_delay fp 0))
    else
      print_endline
        "The decomposition fixed point diverges (feedback instability); no \
         finite bound."
  in
  ("ring", "Fixed-point analysis of a cyclic ring network",
   Term.(const run $ ring_n $ ring_hops $ util_arg))

let sp_cmd =
  let run n u () =
    let t =
      build (fun () ->
          Tandem.make ~n ~utilization:u
            ~discipline:Discipline.Static_priority ())
    in
    let net = t.network in
    let dd = Decomposed.analyze net in
    let sp = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
    Printf.printf
      "Static-priority tandem (n = %d, U = %g); priorities: A = 0 (urgent),        conn0 = 1, B = 2:

"
      n u;
    let tbl =
      Table.create
        ~header:[ "flow"; "prio"; "SP-decomposed"; "SP-integrated"; "R" ]
    in
    List.iter
      (fun (f : Flow.t) ->
        let d = Decomposed.flow_delay dd f.id in
        let i = Integrated.flow_delay sp f.id in
        Table.add_row tbl
          [
            f.name;
            string_of_int f.priority;
            Table.float_cell d;
            Table.float_cell i;
            Table.float_cell (Engine.relative_improvement d i);
          ])
      (Network.flows net);
    Table.print tbl
  in
  ("sp", "Static-priority tandem: integrated extension vs decomposition",
   Term.(const run $ hops_arg $ util_arg))

let fluid_cmd =
  let tries_arg =
    Arg.(value & opt int 8 & info [ "tries" ] ~docv:"K"
           ~doc:"Number of phase-randomized fluid scenarios.")
  in
  let run n u tries () =
    let t =
      build (fun () -> Tandem.make ~n ~utilization:u ~peak:infinity ())
    in
    let net = t.network in
    let observed = Fluid.phase_search ~tries net in
    let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
    let dd = Decomposed.analyze net in
    Printf.printf
      "Exact fluid scenarios (%d phase draws) on the tandem (n = %d, U = %g):\n\n"
      tries n u;
    let tbl =
      Table.create
        ~header:[ "flow"; "fluid max"; "D_I"; "obs/D_I"; "D_D"; "obs/D_D" ]
    in
    List.iter
      (fun (id, obs) ->
        let f = Network.flow net id in
        let di = Integrated.flow_delay integ id in
        let d = Decomposed.flow_delay dd id in
        Table.add_row tbl
          [
            f.Flow.name;
            Table.float_cell obs;
            Table.float_cell di;
            Table.float_cell (obs /. di);
            Table.float_cell d;
            Table.float_cell (obs /. d);
          ])
      observed;
    Table.print tbl;
    print_endline
      "\nFluid scenarios conform to the analytic envelopes exactly, so \
       obs/D is a\ntrue lower estimate of each bound's tightness."
  in
  ("fluid", "Exact fluid tightness probe for the tandem (no packetization)",
   Term.(const run $ hops_arg $ util_arg $ tries_arg))

(* Scenario-corpus selectors, shared by `dot` and `scale`. *)
let family_choices = List.map (fun f -> (Corpus.to_string f, f)) Corpus.all

let family_arg =
  Arg.(value & opt (some (enum family_choices)) None
       & info [ "family" ] ~docv:"FAMILY"
           ~doc:"Generate a scenario-corpus topology instead of the tandem: \
                 $(b,leaf-spine), $(b,fat-tree), $(b,edge-cloud) or \
                 $(b,heavytail).")

let servers_arg =
  Arg.(value & opt int 1000 & info [ "servers" ] ~docv:"N"
         ~doc:"Target server count for the corpus generator.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Generator seed (the corpus is deterministic in \
               family/servers/seed).")

let dot_cmd =
  let max_servers_arg =
    Arg.(value & opt int 2000 & info [ "max-servers" ] ~docv:"N"
           ~doc:"Refuse to dump graphs larger than N servers (Graphviz \
                 itself stops being useful long before the generator does); \
                 raise the limit explicitly to override.")
  in
  let run n u family servers seed max_servers () =
    let net =
      match family with
      | None ->
          (build (fun () -> Tandem.make ~n ~utilization:u ())).Tandem.network
      | Some family -> Corpus.generate ~family ~target_servers:servers ~seed
    in
    let size = Network.size net in
    if size > max_servers then begin
      Printf.eprintf
        "netcalc: refusing to dump %d servers as Graphviz (limit %d).\n\
         Pass --max-servers %d to override.\n"
        size max_servers size;
      exit 1
    end;
    Dot.output_net stdout net
  in
  ("dot", "Emit a routing graph (tandem or corpus family) as Graphviz",
   Term.(const run $ hops_arg $ util_arg $ family_arg $ servers_arg $ seed_arg
         $ max_servers_arg))

let scale_cmd =
  let family_req_arg =
    Arg.(value & opt (enum family_choices) Corpus.Leaf_spine
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Corpus family: $(b,leaf-spine), $(b,fat-tree), \
                   $(b,edge-cloud) or $(b,heavytail).")
  in
  let servers_arg =
    Arg.(value & opt int 10000 & info [ "servers" ] ~docv:"N"
           ~doc:"Target server count.")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Also run the table-based engine and verify the streaming \
                 bounds are bit-identical (costs the table path's memory; \
                 keep the size moderate).")
  in
  let run family servers seed check link_cap () =
    let options = options_of link_cap in
    let net = Corpus.generate ~family ~target_servers:servers ~seed in
    let t0 = Unix.gettimeofday () in
    let s = Propagation_stream.analyze ~options net in
    let dt = Unix.gettimeofday () -. t0 in
    let st = Propagation_stream.frontier_stats s in
    let delays = Propagation_stream.all_flow_delays s in
    let finite = List.filter (fun (_, d) -> d < infinity) delays in
    let worst = List.fold_left (fun acc (_, d) -> Float.max acc d) 0. finite in
    Printf.printf
      "Streaming analysis of %s (%d servers, %d flows, seed %d):\n\n"
      (Corpus.to_string family) (Network.size net)
      (List.length (Network.flows net)) seed;
    let tbl = Table.create ~header:[ "metric"; "value" ] in
    Table.add_row tbl [ "antichain levels"; string_of_int st.levels ];
    Table.add_row tbl [ "widest antichain"; string_of_int st.widest_antichain ];
    Table.add_row tbl
      [ "total (flow,server) pairs"; string_of_int st.total_pairs ];
    Table.add_row tbl [ "peak live frontier"; string_of_int st.peak_live ];
    Table.add_row tbl [ "envelopes evicted"; string_of_int st.evicted ];
    Table.add_row tbl
      [ "bounded flows"; Printf.sprintf "%d / %d" (List.length finite)
          (List.length delays) ];
    Table.add_row tbl [ "worst bounded delay"; Table.float_cell worst ];
    Table.add_row tbl [ "analysis time (s)"; Printf.sprintf "%.3f" dt ];
    Table.add_row tbl
      [ "servers / s";
        Printf.sprintf "%.0f" (float_of_int (Network.size net) /. dt) ];
    Table.print tbl;
    if check then begin
      let d = Decomposed.analyze ~options net in
      let table_delays =
        List.map (fun (id, _) -> (id, Decomposed.flow_delay d id)) delays
      in
      (* Bits, not [=]: [=] equates [0.] with [-0.] and never equates
         NaN with itself. *)
      let same_bits (id, a) (id', b) =
        id = id' && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      if List.equal same_bits delays table_delays then
        print_endline "\ncheck: streaming bounds bit-identical to the \
                       table-based engine"
      else begin
        print_endline "\ncheck: MISMATCH between streaming and table-based \
                       bounds";
        exit 1
      end
    end
  in
  ("scale",
   "Streaming frontier analysis of a corpus-family topology at scale",
   Term.(const run $ family_req_arg $ servers_arg $ seed_arg $ check_arg
         $ link_cap_arg))

let method_choices =
  [
    ("decomposed", Engine.Decomposed);
    ("service-curve", Engine.Service_curve);
    ("integrated", Engine.Integrated);
    (* The static-priority extension's former name, kept for scripts. *)
    ("integrated-sp", Engine.Integrated);
    ("fifo-theta", Engine.Fifo_theta);
  ]

let load_scenario file =
  try Scenario.load file
  with Scenario.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" file line msg;
    exit 1

let admit_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario file.  Flows carrying a deadline are the admission \
                 candidates (tested in file order); the rest are the standing \
                 population.")
  in
  let method_arg =
    Arg.(value & opt (enum method_choices) Engine.Decomposed
         & info [ "method" ] ~docv:"M"
             ~doc:"Analysis method backing the admission test, one of \
                   $(b,decomposed), $(b,service-curve), $(b,integrated) \
                   (FIFO or static-priority networks; $(b,integrated-sp) is \
                   accepted as a second spelling), $(b,fifo-theta).")
  in
  let run file method_ link_cap () =
    let net = load_scenario file in
    let options = options_of link_cap in
    let servers = Network.servers net in
    let all = Network.flows net in
    let base = List.filter (fun (f : Flow.t) -> f.deadline = None) all in
    let candidates = List.filter (fun (f : Flow.t) -> f.deadline <> None) all in
    let outcome, admitted =
      refused (not_applicable stderr method_) (fun () ->
          let outcome =
            Admission.run ~options ~servers ~base ~candidates ~method_ ()
          in
          ( outcome,
            Engine.analyze ~options
              (Network.make ~servers ~flows:(base @ outcome.admitted))
              method_ ))
    in
    let rejected_reason (c : Flow.t) =
      List.find_opt (fun ((f : Flow.t), _) -> f.id = c.id) outcome.rejections
    in
    let tbl =
      Table.create
        ~header:
          [ "candidate"; "deadline"; "buffer"; "verdict"; "bound"; "backlog";
            "reason" ]
    in
    List.iter
      (fun (c : Flow.t) ->
        let deadline =
          match c.deadline with Some d -> Table.float_cell d | None -> "-"
        in
        let budget =
          match c.buffer with Some b -> Table.float_cell b | None -> "-"
        in
        match rejected_reason c with
        | Some (_, reason) ->
            Table.add_row tbl
              [ c.name; deadline; budget; "rejected"; "-"; "-";
                Admission.reason_to_string reason ]
        | None ->
            Table.add_row tbl
              [ c.name; deadline; budget; "admitted";
                Table.float_cell (Engine.flow_delay admitted c.id);
                Table.float_cell (Engine.flow_backlog admitted c.id);
                "-" ])
      candidates;
    Printf.printf
      "Admission control (%s): %d candidate(s), %d admitted, %d rejected, \
       admitted rate %g\n\n"
      (Engine.method_name method_) (List.length candidates)
      (List.length outcome.admitted) (List.length outcome.rejected)
      outcome.admitted_rate;
    Table.print tbl
  in
  ("admit", "Batch admission control over a scenario's deadline-bearing flows",
   Term.(const run $ file_arg $ method_arg $ link_cap_arg))

let serve_cmd =
  let file_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Scenario file for the initial network.  Defaults to the \
                 paper's tandem built from --hops/--utilization/--sigma/--peak.")
  in
  let engine_choices =
    ("delta", Serve.Delta)
    :: List.map (fun (n, m) -> (n, Serve.Full m)) method_choices
  in
  let engine_arg =
    Arg.(value & opt (enum engine_choices) Serve.Delta
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"$(b,delta) (default) re-analyzes only the affected \
                   downstream cone per operation; a method name \
                   ($(b,decomposed), $(b,integrated), ...) re-analyzes the \
                   whole network per operation with that method.")
  in
  let stdin_arg =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Serve a single session on stdin/stdout (the default \
                 transport when no socket is requested).")
  in
  let unix_arg =
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at PATH.")
  in
  let tcp_arg =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Listen on loopback TCP PORT.")
  in
  let clients_arg =
    Arg.(value & opt (some int) None & info [ "clients" ] ~docv:"N"
           ~doc:"Exit after serving N connections (socket transports only).")
  in
  let run file engine _stdin unix tcp clients n u sigma peak link_cap () =
    let net =
      match file with
      | Some f -> load_scenario f
      | None ->
          (build (fun () -> Tandem.make ~n ~utilization:u ~sigma ~peak ()))
            .Tandem.network
    in
    let t =
      Serve.create ~options:(options_of link_cap) ~mode:engine
        ~servers:(Network.servers net) ~flows:(Network.flows net) ()
    in
    match (unix, tcp) with
    | Some path, _ -> Serve.listen_unix ?clients t ~path
    | None, Some port -> Serve.listen_tcp ?clients t ~port
    | None, None -> Serve.run_channels t stdin stdout
  in
  ("serve", "Online admission-control service over an NDJSON line protocol",
   Term.(const run $ file_arg $ engine_arg $ stdin_arg $ unix_arg $ tcp_arg
         $ clients_arg $ hops_arg $ util_arg $ sigma_arg $ peak_arg
         $ link_cap_arg))

(* Every subcommand is a (name, doc, thunk term) triple so that it can
   be mounted twice: bare under `netcalc`, and wrapped with
   instrumentation under `netcalc profile`. *)
let subcommands =
  [
    tandem_cmd; sweep_cmd; simulate_cmd; random_cmd; analyze_cmd; ring_cmd;
    fluid_cmd; sp_cmd; dot_cmd; scale_cmd; admit_cmd; serve_cmd;
  ]

(* Worker-count option, shared by every subcommand (plain and
   profiled): the analyses fan out on netcalc.par, whose pool size is
   resolved as --jobs > NETCALC_JOBS > hardware count.  Results do not
   depend on the value. *)
let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel analysis pool \
               (netcalc.par).  Defaults to $(b,NETCALC_JOBS) or the \
               hardware-recommended count; results are identical for \
               any value.")

let with_globals jobs f =
  (match jobs with
  | Some n when n >= 1 -> Par.set_jobs n
  | Some n ->
      Printf.eprintf "netcalc: --jobs expects a positive integer, got %d\n" n;
      exit 1
  | None -> ());
  f ()

let plain_cmd (name, doc, term) =
  Cmd.v (Cmd.info name ~doc) Term.(const with_globals $ jobs_arg $ term)

(* `netcalc profile CMD ARGS...` runs CMD under the netcalc.obs
   instrumentation and appends the operation-cost profile (metrics
   table + per-span timing summary); --trace exports the span ring as
   Chrome trace-event JSON for chrome://tracing / Perfetto. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON file of the recorded spans.")

let metrics_csv_arg =
  Arg.(value & opt (some string) None & info [ "metrics-csv" ] ~docv:"FILE"
         ~doc:"Also write the metrics table as CSV.")

let profiled trace_out metrics_csv f =
  Obs.enable ();
  Metrics.reset ();
  Trace.clear ();
  f ();
  print_newline ();
  print_endline "== netcalc.obs: operation metrics ==";
  Table.print (Metrics.to_table ());
  print_newline ();
  print_endline "== netcalc.obs: timing spans ==";
  Table.print (Trace.summary_table ());
  if Trace.dropped () > 0 then
    Printf.printf "(%d span(s) evicted from the trace ring)\n"
      (Trace.dropped ());
  let write what ?(suffix = "") path save =
    try
      save path;
      Printf.printf "%s written to %s%s\n" what path suffix
    with Sys_error msg ->
      Printf.eprintf "netcalc: cannot write %s: %s\n" what msg;
      exit 1
  in
  (match metrics_csv with
  | Some path ->
      write "metrics CSV" path (fun p ->
          let oc = open_out p in
          output_string oc (Table.to_csv (Metrics.to_table ()));
          close_out oc)
  | None -> ());
  match trace_out with
  | Some path ->
      write "trace" ~suffix:" (open in chrome://tracing)" path
        Trace.save_chrome_json
  | None -> ()

let profiled_cmd (name, doc, term) =
  Cmd.v
    (Cmd.info name ~doc:(doc ^ " (instrumented)"))
    Term.(
      const (fun jobs trace csv f ->
          with_globals jobs (fun () -> profiled trace csv f))
      $ jobs_arg $ trace_arg $ metrics_csv_arg $ term)

let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:"Run any analysis subcommand under netcalc.obs instrumentation \
             and report where the time and min-plus operations go")
    (List.map profiled_cmd subcommands)

let () =
  let info =
    Cmd.info "netcalc" ~version:"1.0.0"
      ~doc:"End-to-end delay analysis for feedforward FIFO networks \
            (Li/Bettati/Zhao, ICPP 1999)"
  in
  exit (Cmd.eval (Cmd.group info (profile_cmd :: List.map plain_cmd subcommands)))
