(* Benchmark harness: regenerates every figure of the paper's
   evaluation (Sec. 4) plus the ablations and validation experiments of
   DESIGN.md, and times the analysis algorithms with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig5  -- one experiment
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --csv out/   -- also write CSV data files
     dune exec bench/main.exe -- --obs        -- per-experiment obs profiles
     dune exec bench/main.exe -- --jobs 4     -- netcalc.par pool size
     dune exec bench/main.exe -- --json out.json -- perf-trajectory JSON

   Any other argument is an error (exit 1).

   Experiment ids: fig4 fig5 fig6 buffers burstiness validation admission
                   burst-propagation ablation-pairing ablation-theta sp
                   tightness feedback edf-allocation randomnet timing
                   serve-churn scale

   Independent sweep cells (the (U, n) grids, the per-seed randomnet
   batch, ...) are computed on the netcalc.par pool; all printing stays
   sequential in the original order, so tables are byte-identical at
   any --jobs value.

   Absolute numbers are not expected to match the paper (its closed
   forms come from an unavailable technical report and its y-axes are
   unreadable in the OCR); the reproduced object is the *shape*: who
   wins, by how much, and where the orderings cross.  See
   EXPERIMENTS.md for the side-by-side reading. *)

let loads = Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1

let tandem ?(sigma = 1.) ?(peak = 1.) n u =
  Tandem.make ~n ~utilization:u ~sigma ~peak ()

let delays ?(with_theta = false) n u =
  let t = tandem n u in
  Engine.compare_all ~with_theta ~strategy:(Pairing.Along_route 0) t.network 0

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* When --csv DIR is given, every printed table is also written to
   DIR/<name>.csv. *)
let csv_dir : string option ref = ref None

let output ~name tbl =
  Table.print tbl;
  match !csv_dir with
  | Some dir -> Table.save_csv ~dir ~name tbl
  | None -> ()

(* Named scalar results (timings, speedups) an experiment wants in the
   --json trajectory next to its counters; cleared per experiment. *)
let perf_values : (string * float) list ref = ref []
let record_value name v = perf_values := (name, v) :: !perf_values

(* Split [xs] into consecutive chunks of [k]. *)
let rec chunks k xs =
  if xs = [] then []
  else
    let rec take n = function
      | x :: rest when n > 0 ->
          let hd, tl = take (n - 1) rest in
          (x :: hd, tl)
      | rest -> ([], rest)
    in
    let hd, tl = take k xs in
    hd :: chunks k tl

(* Shared layout for the three figures: a delay table with two series
   per hop count, then a relative-improvement table.  The (U, n) grid
   goes through the incremental sweep engine: one shared forward pass
   per load serves every hop-count prefix, and a figure over the same
   largest tandem as an earlier one reuses its memoized passes.  Each
   cell has the bits of a per-cell analysis (pinned by tests). *)
let figure ~name ~hops ~left ~right ~left_name ~right_name ~note () =
  let results = Sweep_engine.tandem_grid ~hops ~loads () in
  let cache =
    List.combine loads (chunks (List.length hops) results)
  in
  print_endline "\nEnd-to-end delay bounds:";
  let tbl =
    Table.create
      ~header:
        ("U"
        :: List.concat_map
             (fun n ->
               [
                 Printf.sprintf "%s(%d)" left_name n;
                 Printf.sprintf "%s(%d)" right_name n;
               ])
             hops)
  in
  List.iter
    (fun (u, row) ->
      Table.add_floats tbl
        (u :: List.concat_map (fun c -> [ left c; right c ]) row))
    cache;
  output ~name:(name ^ "-delays") tbl;
  Printf.printf
    "\nRelative improvement R = (%s - %s) / %s of %s over %s:\n" left_name
    right_name left_name right_name left_name;
  let tbl2 =
    Table.create
      ~header:("U" :: List.map (fun n -> Printf.sprintf "R(%d)" n) hops)
  in
  List.iter
    (fun (u, row) ->
      Table.add_floats tbl2
        (u
        :: List.map
             (fun c -> Engine.relative_improvement (left c) (right c))
             row))
    cache;
  output ~name:(name ^ "-improvement") tbl2;
  print_endline note

let fig4 () =
  section "Figure 4 — Decomposed vs Service Curve (tandem, Connection 0)";
  figure ~name:"fig4" ~hops:[ 2; 4; 6; 8 ]
    ~left:(fun (c : Engine.comparison) -> c.service_curve)
    ~right:(fun c -> c.decomposed)
    ~left_name:"D_SC" ~right_name:"D_D"
    ~note:
      "\nExpected shape: the service-curve method degrades sharply as the \
       load grows\n(its leftover rate collapses); for large n at low load \
       the compounding of\nper-server worst cases makes Decomposed slightly \
       worse instead (negative R)."
    ()

let fig5 () =
  section "Figure 5 — Integrated vs Decomposed (tandem, Connection 0)";
  figure ~name:"fig5" ~hops:[ 2; 4; 8 ]
    ~left:(fun (c : Engine.comparison) -> c.decomposed)
    ~right:(fun c -> c.integrated)
    ~left_name:"D_D" ~right_name:"D_I"
    ~note:
      "\nExpected shape: Integrated wins at every point; at low-to-moderate \
       load the\nimprovement grows with the network size."
    ()

let fig6 () =
  section "Figure 6 — Integrated vs Service Curve (tandem, Connection 0)";
  figure ~name:"fig6" ~hops:[ 2; 4; 6; 8 ]
    ~left:(fun (c : Engine.comparison) -> c.service_curve)
    ~right:(fun c -> c.integrated)
    ~left_name:"D_SC" ~right_name:"D_I"
    ~note:
      "\nExpected shape: significant gains everywhere (recall D_SC is \
       itself optimistic\nfor FIFO); the margin narrows only for large \
       systems under high load."
    ()

(* Buffer sizing over the same (U, n) tandem grid as the delay figures:
   Connection 0's buffer requirement (worst per-hop backlog bound,
   minimal per-flow split) under the decomposed and the integrated
   windows.  Served by the same shared sweep passes as fig4-6, so the
   whole grid costs one forward pass per load. *)
let buffers () =
  section "Buffer sizing — Connection 0's per-hop backlog bounds (tandem)";
  let hops = [ 2; 4; 6; 8 ] in
  let results = Sweep_engine.tandem_grid ~hops ~loads () in
  let cache = List.combine loads (chunks (List.length hops) results) in
  print_endline "\nBuffer requirement (worst per-hop backlog bound):";
  let tbl =
    Table.create
      ~header:
        ("U"
        :: List.concat_map
             (fun n ->
               [ Printf.sprintf "B_D(%d)" n; Printf.sprintf "B_I(%d)" n ])
             hops)
  in
  List.iter
    (fun (u, row) ->
      Table.add_floats tbl
        (u
        :: List.concat_map
             (fun (c : Engine.comparison) ->
               [ c.decomposed_backlog; c.integrated_backlog ])
             row))
    cache;
  output ~name:"buffers-bounds" tbl;
  print_endline
    "\nRelative improvement R = (B_D - B_I) / B_D of Integrated over \
     Decomposed:";
  let tbl2 =
    Table.create
      ~header:("U" :: List.map (fun n -> Printf.sprintf "R(%d)" n) hops)
  in
  List.iter
    (fun (u, row) ->
      Table.add_floats tbl2
        (u
        :: List.map
             (fun (c : Engine.comparison) ->
               Engine.relative_improvement c.decomposed_backlog
                 c.integrated_backlog)
             row))
    cache;
  output ~name:"buffers-improvement" tbl2;
  (* Every grid cell lands in the --json trajectory (finite by
     stability of the grid), so CI can assert the backlog pipeline
     stays live. *)
  List.iter
    (fun (u, row) ->
      List.iter2
        (fun n (c : Engine.comparison) ->
          let key part =
            Printf.sprintf "buffers.u%.0f.n%d.%s" (100. *. u) n part
          in
          record_value (key "decomposed") c.decomposed_backlog;
          record_value (key "integrated") c.integrated_backlog)
        hops row)
    cache;
  print_endline
    "\nExpected shape: the integrated window never needs more buffer than \
     the\ndecomposed one, and the gap widens with load (burstiness paid \
     once per pair)."

(* ------------------------------------------------------------------ *)
(* Burstiness invariance (paper Sec. 4.1 claim)                        *)
(* ------------------------------------------------------------------ *)

let burstiness () =
  section
    "Burstiness sweep — Sec. 4.1: \"increasing the traffic burstiness has \
     no effect on the relative improvement\"";
  let tbl =
    Table.create ~header:[ "sigma"; "D_D"; "D_I"; "R(D,I)"; "D_SC"; "R(SC,I)" ]
  in
  let rows =
    Par.map
      (fun sigma ->
        let t = tandem ~sigma 4 0.6 in
        let c =
          Engine.compare_all ~with_theta:false
            ~strategy:(Pairing.Along_route 0) t.network 0
        in
        [
          sigma;
          c.decomposed;
          c.integrated;
          Engine.relative_improvement c.decomposed c.integrated;
          c.service_curve;
          Engine.relative_improvement c.service_curve c.integrated;
        ])
      [ 1.; 2.; 4.; 8. ]
  in
  List.iter (Table.add_floats tbl) rows;
  output ~name:"burstiness" tbl;
  print_endline
    "\nExpected shape: absolute delays scale with sigma while both \
     relative-improvement\ncolumns stay (nearly) constant (exactly \
     constant with peak-free sources,\nnearly with the paper's peak-rate-1 \
     clipping)."

(* ------------------------------------------------------------------ *)
(* Validation against the packet simulator                             *)
(* ------------------------------------------------------------------ *)

let validation () =
  section "Validation — analytic bounds vs greedy packet simulation";
  (* Compute both configurations (analysis + simulation) in parallel,
     print in order afterwards. *)
  let computed =
    Par.map
      (fun (n, u) ->
        let t = Tandem.make ~n ~utilization:u ~peak:infinity () in
        let net = t.network in
        let config =
          { Sim.default_config with packet_size = 0.2; horizon = 400. }
        in
        let dd = Decomposed.analyze net in
        let bounds =
          [
            ("D_D", Decomposed.all_flow_delays dd);
            ( "D_SC",
              Service_curve_method.all_flow_delays
                (Service_curve_method.analyze dd) );
            ( "D_I",
              Integrated.all_flow_delays
                (Integrated.analyze ~strategy:(Pairing.Along_route 0) net) );
          ]
        in
        let reports =
          List.map
            (fun (name, b) -> (name, Validate.check ~config ~bounds:b net))
            bounds
        in
        (n, u, Network.flows net, reports))
      [ (2, 0.6); (4, 0.9) ]
  in
  List.iter
    (fun (n, u, flows, reports) ->
      Printf.printf "\nTandem n = %d, U = %g (peak-free sources):\n" n u;
      let tbl =
        Table.create ~header:[ "flow"; "observed"; "D_D"; "D_SC"; "D_I"; "ok" ]
      in
      List.iteri
        (fun i (f : Flow.t) ->
          let row = List.map (fun (_, rs) -> List.nth rs i) reports in
          let observed = (List.hd row).Validate.observed in
          let ok =
            List.for_all (fun (r : Validate.report) -> r.slack >= -1e-6) row
          in
          Table.add_row tbl
            ([ f.Flow.name; Table.float_cell observed ]
            @ List.map
                (fun (r : Validate.report) -> Table.float_cell r.bound)
                row
            @ [ (if ok then "yes" else "VIOLATION") ]))
        flows;
      output ~name:(Printf.sprintf "validation-n%d" n) tbl)
    computed;
  print_endline
    "\nEvery bound must dominate the observed maximum (column ok = yes)."

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admission () =
  section "Admission control — connections admitted per analysis method";
  let n = 4 in
  let tbl =
    Table.create
      ~header:[ "deadline"; "Service Curve"; "Decomposed"; "Integrated" ]
  in
  List.iter
    (fun deadline ->
      let t = tandem n 0.4 in
      let servers = Network.servers t.network in
      let base = Network.flows t.network in
      let candidates =
        List.init 12 (fun i ->
            Flow.make ~id:(1000 + i)
              ~arrival:(Arrival.paper_source ~sigma:1. ~rho:0.03)
              ~route:(List.init n (fun k -> k))
              ~deadline ())
      in
      let count method_ =
        float_of_int
          (List.length
             (Admission.run ~servers ~base ~candidates ~method_
                ~strategy:(Pairing.Along_route 0) ())
               .admitted)
      in
      Table.add_floats tbl
        [
          deadline;
          count Engine.Service_curve;
          count Engine.Decomposed;
          count Engine.Integrated;
        ])
    [ 16.; 20.; 24.; 30.; 40. ];
  output ~name:"admission" tbl;
  print_endline
    "\nExpected shape: Integrated admits at least as many connections at \
     every\ndeadline, strictly more in the mid range."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_pairing () =
  section "Ablation — pairing strategy and link-capacity sharpening (n = 8)";
  let tbl =
    Table.create
      ~header:[ "U"; "singletons"; "greedy"; "along-route"; "along+linkcap" ]
  in
  List.iter
    (fun u ->
      let t = tandem 8 u in
      let run ?options strategy =
        Integrated.flow_delay
          (Integrated.analyze ?options ~strategy t.network)
          0
      in
      Table.add_floats tbl
        [
          u;
          run Pairing.Singletons;
          run Pairing.Greedy;
          run (Pairing.Along_route 0);
          run ~options:Options.sharpened (Pairing.Along_route 0);
        ])
    [ 0.2; 0.4; 0.6; 0.8; 0.9 ];
  output ~name:"ablation-pairing" tbl;
  print_endline
    "\nExpected shape: singletons = Algorithm Decomposed (the degenerate \
     case);\npairing along the tagged route captures the delay \
     dependencies; the link-cap\noption sharpens further at no conceptual \
     cost."

let ablation_theta () =
  section
    "Ablation — FIFO service-curve family (theta) vs the paper's methods";
  let tbl =
    Table.create
      ~header:[ "n"; "U"; "D_SC (theta=0)"; "D_theta"; "D_I"; "D_D" ]
  in
  let rows =
    Par.map
      (fun (n, u) ->
        let c = delays ~with_theta:true n u in
        [
          float_of_int n;
          u;
          c.service_curve;
          c.fifo_theta;
          c.integrated;
          c.decomposed;
        ])
      [ (4, 0.3); (4, 0.6); (4, 0.9); (8, 0.3); (8, 0.6); (8, 0.9) ]
  in
  List.iter (Table.add_floats tbl) rows;
  output ~name:"ablation-theta" tbl;
  print_endline
    "\nExpected shape: tuning theta always improves on the theta = 0 \
     leftover curve\n(the paper's induced service curve).  At low load the \
     pairwise Integrated\nmethod still wins; at high load / long paths the \
     theta family overtakes it —\nits end-to-end rate does not degrade with \
     path length, validating the\nservice-curve research line the paper's \
     conclusion anticipates."

(* ------------------------------------------------------------------ *)
(* Burst propagation along the path (mechanism view)                   *)
(* ------------------------------------------------------------------ *)

let burst_propagation () =
  section
    "Burst propagation — Connection 0's envelope burst at each middle port";
  let n = 8 and u = 0.7 in
  let t = tandem n u in
  let net = t.network in
  let dd = Decomposed.analyze net in
  let integ = Integrated.analyze ~strategy:(Pairing.Along_route 0) net in
  let tbl =
    Table.create ~header:[ "port"; "Decomposed burst"; "Integrated burst" ]
  in
  List.iter
    (fun sid ->
      let burst_of env = Pwl.eval env 1.0 -. Pwl.final_slope env in
      let integrated_cell =
        (* Inside a pair the integrated method never materializes an
           envelope at the second server — that is precisely the
           integration. *)
        match Integrated.envelope_at integ ~flow:0 ~server:sid with
        | env -> Table.float_cell (burst_of env)
        | exception Not_found -> "(inside pair)"
      in
      Table.add_row tbl
        [
          Printf.sprintf "mid%d" sid;
          Table.float_cell
            (burst_of (Decomposed.envelope_at dd ~flow:0 ~server:sid));
          integrated_cell;
        ])
    t.mid_servers;
  output ~name:"burst-propagation" tbl;
  Printf.printf
    "\n(tandem n = %d, U = %g; burst = intercept of the envelope's final piece.)\nThis is the mechanism behind Figure 5: the decomposition inflates\nConnection 0's burst at every hop, while the integrated pairs charge it\nonce per pair; the gap in the bounds is the accumulated difference.\n"
    n u

(* ------------------------------------------------------------------ *)
(* Static-priority extension (paper Sec. 5 future work)                *)
(* ------------------------------------------------------------------ *)

let sp_extension () =
  section
    "Static-priority extension — Integrated vs Decomposed on the SP tandem \
     (paper Sec. 5 future work)";
  print_endline
    "\nSame Fig. 3 tandem with static-priority servers; priorities: A \
     sessions\nurgent (0), Connection 0 middle (1), B sessions background \
     (2).  Bounds for\nConnection 0 and for a background B session:";
  let tbl =
    Table.create
      ~header:
        [
          "n"; "U"; "conn0 D_D"; "conn0 D_Isp"; "R"; "B1 D_D"; "B1 D_Isp";
        ]
  in
  let rows =
    Par.map
      (fun (n, u) ->
        let t =
          Tandem.make ~n ~utilization:u
            ~discipline:Discipline.Static_priority ()
        in
        let dd = Decomposed.analyze t.network in
        let sp =
          Integrated.analyze ~strategy:(Pairing.Along_route 0) t.network
        in
        let b1 = 4 (* flow id of B1 *) in
        [
          float_of_int n;
          u;
          Decomposed.flow_delay dd 0;
          Integrated.flow_delay sp 0;
          Engine.relative_improvement
            (Decomposed.flow_delay dd 0)
            (Integrated.flow_delay sp 0);
          Decomposed.flow_delay dd b1;
          Integrated.flow_delay sp b1;
        ])
      [ (2, 0.3); (2, 0.7); (4, 0.5); (4, 0.8); (8, 0.6); (8, 0.9) ]
  in
  List.iter (Table.add_floats tbl) rows;
  output ~name:"sp" tbl;
  print_endline
    "\nExpected shape: the pairwise integration carries over to priority \
     classes\n(leftover service curves replace the constant rate) and keeps \
     beating the\ndecomposition, with even larger margins than FIFO at high \
     load — exactly the\nextension the paper announces in its conclusion."

(* ------------------------------------------------------------------ *)
(* EDF deadline allocation (paper ref [28])                            *)
(* ------------------------------------------------------------------ *)

let edf_allocation () =
  section
    "EDF deadline allocation — adaptive vs naive equal split (ref [28])";
  (* A two-hop flow through a hop that two tight pure-burst crosses keep
     busy early; sweep the end-to-end budget. *)
  let make_net deadline =
    let mk ~id ~sigma ~rho ~route ~deadline =
      Flow.make ~id ~arrival:(Arrival.token_bucket ~sigma ~rho ()) ~route
        ~deadline ()
    in
    Network.make
      ~servers:
        (List.init 2 (fun id ->
             Server.make ~id ~rate:1. ~discipline:Discipline.Edf ()))
      ~flows:
        [
          mk ~id:0 ~sigma:1. ~rho:0.05 ~route:[ 0; 1 ] ~deadline;
          mk ~id:1 ~sigma:1. ~rho:0. ~route:[ 0 ] ~deadline:1.;
          mk ~id:2 ~sigma:1. ~rho:0. ~route:[ 0 ] ~deadline:2.;
        ]
  in
  let tbl =
    Table.create
      ~header:[ "budget"; "equal split"; "adaptive"; "adaptive d0"; "d1" ]
  in
  List.iter
    (fun deadline ->
      let net = make_net deadline in
      let a = Edf_allocation.allocate net in
      Table.add_row tbl
        [
          Table.float_cell deadline;
          string_of_bool (Edf_allocation.equal_split_feasible net 0);
          string_of_bool (Edf_allocation.flow_feasible a 0);
          Table.float_cell (Edf_allocation.local_deadline a ~flow:0 ~server:0);
          Table.float_cell (Edf_allocation.local_deadline a ~flow:0 ~server:1);
        ])
    [ 4.0; 4.5; 5.0; 5.5; 6.5; 8.0 ];
  output ~name:"edf-allocation" tbl;
  print_endline
    "\nExpected shape: the adaptive split certifies budgets in a band where the\nequal split fails, by giving the contested first hop the larger share."

(* ------------------------------------------------------------------ *)
(* Feedback (cyclic) networks                                          *)
(* ------------------------------------------------------------------ *)

let feedback () =
  section
    "Feedback — fixed-point analysis of a cyclic ring (paper Sec. 5 \
     limitation)";
  let n = 6 and hops = 4 in
  Printf.printf
    "\nRing of %d rate-1 FIFO servers, each flow riding %d hops; the \
     linearized\nburst recursion has spectral radius U (hops - 1) / 2, so \
     the fixed point\nshould diverge past U = %.3f:\n\n"
    n hops
    (2. /. float_of_int (hops - 1));
  let tbl =
    Table.create ~header:[ "U"; "converged"; "iterations"; "per-flow bound" ]
  in
  let rows =
    Par.map
      (fun u ->
        let r = Ring.make ~n ~hops ~utilization:u () in
        let fp = Fixed_point.analyze ~max_iter:400 r.network in
        [
          Table.float_cell u;
          string_of_bool (Fixed_point.converged fp);
          string_of_int (Fixed_point.iterations fp);
          Table.float_cell (Fixed_point.flow_delay fp 0);
        ])
      [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.65; 0.7; 0.8; 0.9 ]
  in
  List.iter (Table.add_row tbl) rows;
  output ~name:"feedback" tbl;
  print_endline
    "\nExpected shape: finite bounds matching the symmetric closed form\n\
     hops^2 sigma / (1 - U (hops - 1) / 2) up to the threshold, divergence \
     beyond —\nthe feedback effect that keeps Algorithm Integrated \
     restricted to feedforward\nrouting in the paper."

(* ------------------------------------------------------------------ *)
(* Tightness: how close do conforming scenarios get to the bounds?     *)
(* ------------------------------------------------------------------ *)

let tightness () =
  section
    "Tightness — exact fluid scenarios (phase-searched) vs bounds";
  let tbl =
    Table.create
      ~header:
        [ "n"; "U"; "fluid obs"; "D_I"; "obs/D_I"; "D_D"; "obs/D_D" ]
  in
  let rows =
    Par.map
      (fun (n, u) ->
        let t = Tandem.make ~n ~utilization:u ~peak:infinity () in
        let net = t.network in
        let obs = List.assoc 0 (Fluid.phase_search ~tries:10 net) in
        let di =
          Integrated.flow_delay
            (Integrated.analyze ~strategy:(Pairing.Along_route 0) net)
            0
        in
        let dd = Decomposed.flow_delay (Decomposed.analyze net) 0 in
        [ float_of_int n; u; obs; di; obs /. di; dd; obs /. dd ])
      [ (2, 0.4); (2, 0.8); (4, 0.4); (4, 0.8); (8, 0.8) ]
  in
  List.iter (Table.add_floats tbl) rows;
  Table.print tbl;
  (match !csv_dir with Some dir -> Table.save_csv ~dir ~name:"tightness" tbl | None -> ());
  print_endline
    "\nThe fluid executor replays exactly-conforming scenarios (no packetization\nslack), so obs/D is a true lower estimate of each bound's tightness.  The\nintegrated bound is markedly closer to what conforming traffic achieves; on\na 2-server pair with no cross traffic it is attained exactly (tested)."

(* ------------------------------------------------------------------ *)
(* Random-network batch (stress + the pool's bulk workload)            *)
(* ------------------------------------------------------------------ *)

let randomnet () =
  section
    "Random feedforward networks — per-seed batch (methods on layered DAGs)";
  let params seed =
    {
      Randomnet.default with
      layers = 4;
      per_layer = 2;
      num_flows = 12;
      utilization = 0.7;
      seed;
    }
  in
  let seeds = List.init 16 (fun i -> 1 + i) in
  let tbl =
    Table.create ~header:[ "seed"; "D_D"; "D_SC"; "D_I"; "R(D,I)" ]
  in
  (* One independent generated network per seed — the embarrassingly
     parallel batch shape (parameter studies, capacity planning) the
     pool exists for.  Generation is seeded, so any jobs count produces
     the same networks and the same rows. *)
  let rows =
    Par.map
      (fun seed ->
        let net = Randomnet.generate (params seed) in
        let c =
          Engine.compare_all ~with_theta:false
            ~strategy:(Pairing.Along_route 0) net 0
        in
        [
          float_of_int seed;
          c.decomposed;
          c.service_curve;
          c.integrated;
          Engine.relative_improvement c.decomposed c.integrated;
        ])
      seeds
  in
  List.iter (Table.add_floats tbl) rows;
  output ~name:"randomnet" tbl;
  print_endline
    "\nExpected shape: Integrated <= Decomposed on every seed (the pairwise\n\
     integration never loses), with the margin varying by topology draw."

(* ------------------------------------------------------------------ *)
(* Timing (Bechamel)                                                   *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "Timing — analysis cost vs tandem size";
  (* Per-method single-analysis wall time, n in {4, 8, 16, 32}; every
     staged run analyzes the network afresh.  FIFO-theta's coordinate
     descent re-convolves the whole path per candidate, so its large
     sizes are skipped rather than letting one cell dominate the
     bench's runtime (noted in the table as "-"). *)
  let open Bechamel in
  let sizes = [ 4; 8; 16; 32 ] in
  let theta_sizes = [ 4; 8 ] in
  let methods n =
    let net = (tandem n 0.6).network in
    [
      ( "decomposed",
        Some
          (fun () ->
            ignore (Decomposed.all_flow_delays (Decomposed.analyze net))) );
      ( "service-curve",
        Some
          (fun () ->
            ignore
              (Service_curve_method.all_flow_delays
                 (Service_curve_method.analyze (Decomposed.analyze net)))) );
      ( "integrated",
        Some
          (fun () ->
            ignore
              (Integrated.all_flow_delays
                 (Integrated.analyze ~strategy:(Pairing.Along_route 0) net)))
      );
      ( "fifo-theta",
        if List.mem n theta_sizes then
          Some
            (fun () ->
              ignore
                (Fifo_theta.flow_delay
                   (Fifo_theta.analyze (Decomposed.analyze net))
                   0))
        else None );
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let measure name f =
    match Test.elements (Test.make ~name (Staged.stage f)) with
    | [ elt ] -> (
        let raw = Benchmark.run cfg [ instance ] elt in
        match Analyze.OLS.estimates (Analyze.one ols instance raw) with
        | Some [ ns ] -> ns /. 1e6
        | _ -> nan)
    | _ -> nan
  in
  let cells =
    List.map
      (fun n ->
        ( n,
          List.map
            (fun (name, f) -> (name, Option.map (measure name) f))
            (methods n) ))
      sizes
  in
  let tbl =
    Table.create
      ~header:
        ("analysis"
        :: List.map (fun n -> Printf.sprintf "n=%d (ms)" n) sizes)
  in
  List.iter
    (fun m ->
      Table.add_row tbl
        (m
        :: List.map
             (fun (n, row) ->
               match List.assoc m row with
               | Some ms ->
                   record_value (Printf.sprintf "timing.%s.n%d_ms" m n) ms;
                   Printf.sprintf "%.3f" ms
               | None -> "-")
             cells))
    [ "decomposed"; "service-curve"; "integrated"; "fifo-theta" ];
  output ~name:"timing" tbl;
  print_endline
    "\nSingle analyses run in milliseconds even at n = 32 (96 servers) — \
     fast enough\nfor the online admission-control use the paper targets."

(* ------------------------------------------------------------------ *)
(* Serve churn: delta re-analysis vs full re-analysis                  *)
(* ------------------------------------------------------------------ *)

let serve_churn () =
  section
    "Serve churn — delta cone re-analysis vs full re-analysis (admission \
     service)";
  (* A deterministic admission-service workload on the paper's tandem:
     short cross sessions arrive near the tail of the chain (small
     downstream cones) and depart after a sliding window of later
     arrivals.  The delta leg runs the Delta_engine; the full leg runs
     the same script through Admission.decide_one (admit) and
     Admission.bounds_for (teardown refresh) — a service that keeps its
     bound table current by re-analyzing the whole network each time. *)
  let sizes = [ 8; 16; 32 ] in
  let n_ops = 48 in
  let window = 8 in
  let tbl =
    Table.create
      ~header:
        [ "servers"; "ops"; "delta ops/s"; "full ops/s"; "speedup";
          "identical" ]
  in
  List.iter
    (fun n ->
      let t = tandem n 0.5 in
      let servers = Network.servers t.network in
      let base = Network.flows t.network in
      let candidate i =
        let k = n - 2 - (i mod 3) in
        Flow.make ~id:(10000 + i)
          ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.005 ~peak:1. ())
          ~route:[ k; k + 1 ] ~deadline:1000. ()
      in
      let timed f =
        let t0 = Trace.now_s () in
        let r = f () in
        (r, Trace.now_s () -. t0)
      in
      let delta_run () =
        let e = Delta_engine.create ~servers ~flows:base () in
        let live = Queue.create () in
        let ops = ref 0 in
        for i = 0 to n_ops - 1 do
          (match Delta_engine.admit e (candidate i) with
          | Delta_engine.Admitted _ -> Queue.add (10000 + i) live
          | Delta_engine.Rejected _ -> ());
          incr ops;
          if Queue.length live > window then begin
            ignore (Delta_engine.teardown e (Queue.pop live));
            incr ops
          end
        done;
        (e, !ops)
      in
      let full_run () =
        let flows = ref base in
        let live = Queue.create () in
        let ops = ref 0 in
        for i = 0 to n_ops - 1 do
          let cand = candidate i in
          (match
             Admission.decide_one ~servers ~flows:!flows ~candidate:cand
               ~method_:Engine.Decomposed ()
           with
          | Admission.Accepted _ ->
              flows := !flows @ [ cand ];
              Queue.add cand.Flow.id live
          | Admission.Rejected _ -> ());
          incr ops;
          if Queue.length live > window then begin
            let id = Queue.pop live in
            flows := List.filter (fun (g : Flow.t) -> g.Flow.id <> id) !flows;
            ignore
              (Admission.bounds_for ~servers !flows Engine.Decomposed);
            incr ops
          end
        done;
        (!flows, !ops)
      in
      let (e, d_ops), delta_s = timed delta_run in
      let (final_flows, _), full_s = timed full_run in
      (* Same script, same decisions (tested), same final population:
         the delta engine's bound table must match a from-scratch
         analysis of it bit for bit. *)
      let scratch =
        Decomposed.all_flow_delays
          (Decomposed.analyze (Network.make ~servers ~flows:final_flows))
      in
      let mine = Delta_engine.all_flow_delays e in
      let identical =
        List.length scratch = List.length mine
        && List.for_all2
             (fun (i, a) (j, b) ->
               i = j && Int64.bits_of_float a = Int64.bits_of_float b)
             scratch mine
      in
      let s = 3 * n in
      let delta_ops_s = float_of_int d_ops /. delta_s in
      let full_ops_s = float_of_int d_ops /. full_s in
      let speedup = delta_ops_s /. full_ops_s in
      record_value (Printf.sprintf "serve.churn.s%d.delta_ops_s" s)
        delta_ops_s;
      record_value (Printf.sprintf "serve.churn.s%d.full_ops_s" s)
        full_ops_s;
      record_value (Printf.sprintf "serve.churn.s%d.speedup" s) speedup;
      record_value
        (Printf.sprintf "serve.churn.s%d.identical" s)
        (if identical then 1. else 0.);
      Table.add_row tbl
        [
          string_of_int s;
          string_of_int d_ops;
          Printf.sprintf "%.1f" delta_ops_s;
          Printf.sprintf "%.1f" full_ops_s;
          Printf.sprintf "%.2fx" speedup;
          (if identical then "yes" else "NO");
        ])
    sizes;
  output ~name:"serve-churn" tbl;
  print_endline
    "\nExpected shape: the cone of a tail admit/teardown is a small, \
     size-independent\nslice of the network, so the delta engine's advantage \
     grows with the server\ncount (>= 3x at 96 servers) while column \
     'identical' certifies the reuse is\nbit-exact against from-scratch \
     analysis."

(* ------------------------------------------------------------------ *)
(* Scale: streaming frontier propagation on the scenario corpus        *)
(* ------------------------------------------------------------------ *)

(* One row per corpus family: generate at the family's target size,
   run the streaming engine (Propagation_stream), report throughput
   and frontier accounting, then cross-validate a small sampled
   sub-network of the same topology against the packet simulator.
   Everything is seeded, so the rows (and the --json values, seed
   included) are reproducible. *)
let scale () =
  section "Scale — streaming frontier propagation on the scenario corpus";
  let seed = 42 in
  let specs =
    [
      (Corpus.Leaf_spine, 100_000);
      (Corpus.Fat_tree, 10_000);
      (Corpus.Edge_cloud, 10_000);
      (Corpus.Heavytail, 20_000);
    ]
  in
  let tbl =
    Table.create
      ~header:
        [
          "family"; "servers"; "flows"; "levels"; "widest"; "peak live";
          "pairs"; "servers/s"; "sim ok";
        ]
  in
  List.iter
    (fun (family, target) ->
      let name = Corpus.to_string family in
      let net = Corpus.generate ~family ~target_servers:target ~seed in
      let servers = Network.size net in
      let flows = List.length (Network.flows net) in
      let t0 = Trace.now_s () in
      let s = Propagation_stream.analyze net in
      let wall = Trace.now_s () -. t0 in
      let st = Propagation_stream.frontier_stats s in
      let sps = float_of_int servers /. wall in
      (* Cross-validation: an unpeaked regeneration (same seed, same
         routes — the conforming packet emitter needs peak-free
         sources), restricted to a deterministic sample of flows, so
         the simulated sub-network and its analysis see the same
         contention. *)
      let unpeaked =
        Corpus.generate_unpeaked ~family ~target_servers:target ~seed
      in
      let all_ids =
        List.map (fun (f : Flow.t) -> f.Flow.id) (Network.flows unpeaked)
        |> List.sort compare
      in
      let n_ids = List.length all_ids in
      let stride = max 1 (n_ids / 6) in
      let flow_ids =
        List.filteri (fun i _ -> i mod stride = 0 && i / stride < 6) all_ids
      in
      let sub = Network.restrict unpeaked ~flow_ids in
      let bounds = Decomposed.all_flow_delays (Decomposed.analyze sub) in
      let config =
        { Sim.default_config with packet_size = 0.05; horizon = 200. }
      in
      let reports = Validate.check ~config ~bounds sub in
      let sim_ok =
        reports <> []
        && List.for_all (fun (r : Validate.report) -> r.slack >= -1e-6) reports
      in
      let key part = Printf.sprintf "scale.%s.%s" name part in
      record_value (key "seed") (float_of_int seed);
      record_value (key "servers") (float_of_int servers);
      record_value (key "flows") (float_of_int flows);
      record_value (key "wall_s") wall;
      record_value (key "servers_per_sec") sps;
      record_value (key "levels") (float_of_int st.levels);
      record_value (key "widest_antichain") (float_of_int st.widest_antichain);
      record_value (key "peak_live_frontier") (float_of_int st.peak_live);
      record_value (key "evicted") (float_of_int st.evicted);
      record_value (key "total_pairs") (float_of_int st.total_pairs);
      record_value (key "sim.sub_servers") (float_of_int (Network.size sub));
      record_value (key "sim.sub_flows") (float_of_int (List.length flow_ids));
      record_value (key "sim.ok") (if sim_ok then 1. else 0.);
      Table.add_row tbl
        [
          name;
          string_of_int servers;
          string_of_int flows;
          string_of_int st.levels;
          string_of_int st.widest_antichain;
          string_of_int st.peak_live;
          string_of_int st.total_pairs;
          Printf.sprintf "%.0f" sps;
          (if sim_ok then "yes" else "NO");
        ])
    specs;
  output ~name:"scale" tbl;
  print_endline
    "\nExpected shape: every family completes a full streaming analysis in \
     one\nprocess — 10^5 servers for the leaf-spine — with the peak live \
     frontier a\nfraction of the total (flow, server) pairs (the table-based \
     footprint), and\nevery sampled sub-network's simulated delays dominated \
     by the analytic\nbounds (sim ok = yes)."

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("buffers", buffers);
    ("burstiness", burstiness);
    ("validation", validation);
    ("admission", admission);
    ("burst-propagation", burst_propagation);
    ("ablation-pairing", ablation_pairing);
    ("ablation-theta", ablation_theta);
    ("sp", sp_extension);
    ("tightness", tightness);
    ("feedback", feedback);
    ("edf-allocation", edf_allocation);
    ("randomnet", randomnet);
    ("timing", timing);
    ("serve-churn", serve_churn);
    ("scale", scale);
  ]

(* Perf-trajectory record for --json: one entry per experiment, with
   wall time, the nonzero netcalc.obs counters (min-plus op counts,
   cache and memo hits/misses) of that experiment alone, the
   curve-workload summary (peak live-curve size and segments processed
   per second, from the pwl.segments.* metrics), and any named scalar
   values it recorded (buffer cells, timings, churn rates, scale
   figures). *)
type perf_record = {
  id : string;
  wall_s : float;
  peak_segments : int;
  segments_per_sec : float;
  peak_rss_kb : int option;
      (* VmHWM at the end of the experiment: the process's lifetime
         high watermark, so monotone across experiments — the first
         experiment that spikes it owns the jump.  None on platforms
         without /proc. *)
  major_words : float;
  top_heap_words : int;
  counters : (string * int) list;
  values : (string * float) list;
}

(* Peak resident set (VmHWM, kB) from /proc/self/status; None where
   the file or the field does not exist (non-Linux). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let prefix = "VmHWM:" in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if
                  String.length line >= String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix
                then
                  String.to_seq line
                  |> Seq.filter (fun c -> c >= '0' && c <= '9')
                  |> String.of_seq |> int_of_string_opt
                else scan ()
          in
          scan ())

let json_out : string option ref = ref None
let perf_records : perf_record list ref = ref []

(* With --obs, every experiment also emits its operation-cost profile
   (netcalc.obs metrics + span timings), so each figure ships with the
   min-plus workload that produced it; with --csv DIR the metrics also
   land in DIR/obs-<id>.csv.  With --json, metrics are likewise reset
   per experiment so the JSON counters are per-experiment deltas. *)
let run_experiment ~obs (id, f) =
  let collect = obs || !json_out <> None in
  if collect then begin
    Metrics.reset ();
    Trace.clear ()
  end;
  perf_values := [];
  let t0 = Trace.now_s () in
  f ();
  let wall_s = Trace.now_s () -. t0 in
  if !json_out <> None then begin
    let snap = Metrics.snapshot () in
    let counters = List.filter (fun (_, n) -> n > 0) snap.Metrics.counters in
    let peak_segments =
      Option.value ~default:0
        (List.assoc_opt "pwl.segments.max" snap.Metrics.peaks)
    in
    let segments_per_sec =
      match List.assoc_opt "pwl.segments.total" snap.Metrics.counters with
      | Some n when wall_s > 0. -> float_of_int n /. wall_s
      | _ -> 0.
    in
    let gc = Gc.quick_stat () in
    perf_records :=
      {
        id;
        wall_s;
        peak_segments;
        segments_per_sec;
        peak_rss_kb = peak_rss_kb ();
        major_words = gc.Gc.major_words;
        top_heap_words = gc.Gc.top_heap_words;
        counters;
        values = List.rev !perf_values;
      }
      :: !perf_records
  end;
  if obs then begin
    Printf.printf "\n[obs] operation profile for %s:\n\n" id;
    Table.print (Metrics.to_table ());
    print_newline ();
    Table.print (Trace.summary_table ());
    match !csv_dir with
    | Some dir -> Table.save_csv ~dir ~name:("obs-" ^ id) (Metrics.to_table ())
    | None -> ()
  end

(* Schema netcalc-bench/3: /2 plus per-experiment memory accounting —
   "peak_rss_kb" (VmHWM from /proc/self/status; the key is absent on
   platforms without it, and monotone across experiments since it is a
   process-lifetime high watermark) and "gc" with the runtime's
   cumulative "major_words" and "top_heap_words".  "backend" is always
   "pwl", the engines' only curve representation; it stays until the
   next schema version. *)
let write_perf_json path ~total_wall_s =
  let num = Sjson.num_of_int in
  let experiment r =
    Sjson.Obj
      ([
         ("id", Sjson.Str r.id); ("wall_s", Sjson.Num r.wall_s);
         ("peak_segments", num r.peak_segments);
         ( "segments_per_sec",
           Sjson.Num
             (if Float.is_finite r.segments_per_sec then r.segments_per_sec
              else 0.) );
       ]
      @ (match r.peak_rss_kb with
        | Some kb -> [ ("peak_rss_kb", num kb) ]
        | None -> [])
      @ [
          ( "gc",
            Sjson.Obj
              [
                ("major_words", Sjson.Num r.major_words);
                ("top_heap_words", num r.top_heap_words);
              ] );
          ( "counters",
            Sjson.Obj (List.map (fun (name, n) -> (name, num n)) r.counters) );
          (* inf/nan are not JSON numbers; a failed OLS fit just drops out. *)
          ( "values",
            Sjson.Obj
              (List.filter_map
                 (fun (name, v) ->
                   if Float.is_finite v then Some (name, Sjson.Num v) else None)
                 r.values) );
        ])
  in
  let doc =
    Sjson.Obj
      [
        ("schema", Sjson.Str "netcalc-bench/3"); ("backend", Sjson.Str "pwl");
        ("par_backend", Sjson.Str Par.backend); ("jobs", num (Par.jobs ()));
        ("total_wall_s", Sjson.Num total_wall_s);
        ("experiments", Sjson.List (List.rev_map experiment !perf_records));
      ]
  in
  let oc = open_out path in
  output_string oc (Sjson.render doc);
  output_char oc '\n';
  close_out oc

(* One pass over the command line.  An argument that is not a known
   flag is an error, so a misspelt or retired flag cannot silently run
   the defaults. *)
let () =
  let list = ref false and obs = ref false and only = ref None in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest ->
        list := true;
        parse rest
    | "--obs" :: rest ->
        obs := true;
        parse rest
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse rest
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> Par.set_jobs n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            exit 1);
        parse rest
    | [ ("--only" | "--csv" | "--json" | "--jobs") as flag ] ->
        Printf.eprintf "%s expects a value\n" flag;
        exit 1
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then List.iter (fun (id, _) -> print_endline id) experiments
  else
    let obs = !obs || Prof.enabled () in
    if obs || !json_out <> None then Obs.enable ();
    let selected =
      match !only with
      | None -> experiments
      | Some id -> (
          match List.assoc_opt id experiments with
          | Some f -> [ (id, f) ]
          | None ->
              Printf.eprintf "unknown experiment %s; try --list\n" id;
              exit 1)
    in
    let t0 = Trace.now_s () in
    List.iter (run_experiment ~obs) selected;
    match !json_out with
    | Some path ->
        write_perf_json path ~total_wall_s:(Trace.now_s () -. t0);
        Printf.eprintf "[json] wrote %s\n" path
    | None -> ()
