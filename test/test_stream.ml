(* Tests for the streaming frontier engine (Propagation_stream), the
   antichain decomposition (Network.levels) and the scenario-corpus
   generators.

   The streaming engine's contract is bit-identity: on every
   feedforward network it must produce exactly the floats of the
   table-based Decomposed engine, at any jobs count.  All comparisons
   here go through Int64.bits_of_float, not a tolerance. *)

open Testutil

let bits = Int64.bits_of_float

let same_delays msg expected actual =
  Alcotest.(check (list (pair int int64)))
    msg
    (List.map (fun (id, d) -> (id, bits d)) expected)
    (List.map (fun (id, d) -> (id, bits d)) actual)

let decomposed_delays ?options net =
  let dd = Decomposed.analyze ?options net in
  Network.flows net
  |> List.map (fun (f : Flow.t) -> (f.id, Decomposed.flow_delay dd f.id))
  |> List.sort compare

let stream_delays ?options ?jobs net =
  Propagation_stream.all_flow_delays
    (Propagation_stream.analyze ?options ?jobs net)

(* --- bit-identity vs the table-based engine ----------------------- *)

let test_tandem_identity () =
  List.iter
    (fun n ->
      List.iter
        (fun u ->
          let t = Tandem.make ~n ~utilization:u () in
          same_delays
            (Printf.sprintf "tandem n=%d u=%g" n u)
            (decomposed_delays t.network)
            (stream_delays t.network))
        [ 0.3; 0.6; 0.9 ])
    [ 2; 4; 6; 8 ]

let test_tandem_identity_sharpened () =
  let t = Tandem.make ~n:6 ~utilization:0.7 () in
  let options = Options.sharpened in
  same_delays "tandem n=6 u=0.7 link-cap"
    (decomposed_delays ~options t.network)
    (stream_delays ~options t.network)

let test_randomnet_identity () =
  List.iter
    (fun seed ->
      let net =
        Randomnet.generate
          {
            Randomnet.default with
            layers = 5;
            per_layer = 3;
            num_flows = 20;
            utilization = 0.7;
            rate_spread = 0.2;
            seed;
          }
      in
      same_delays
        (Printf.sprintf "randomnet seed=%d" seed)
        (decomposed_delays net) (stream_delays net))
    (List.init 8 (fun i -> 1 + i))

let test_overload_identity () =
  (* An unstable middle server poisons downstream hops; the streaming
     engine must replicate Decomposed's infinities exactly. *)
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.7 () in
  let net =
    Network.make
      ~servers:
        [
          Server.make ~id:0 ~rate:2. ();
          Server.make ~id:1 ~rate:1. () (* 0.7 + 0.7 > 1: unstable *);
          Server.make ~id:2 ~rate:2. ();
        ]
      ~flows:
        [
          Flow.make ~id:0 ~arrival ~route:[ 0; 1; 2 ] ();
          Flow.make ~id:1 ~arrival ~route:[ 1; 2 ] ();
          Flow.make ~id:2 ~arrival ~route:[ 0 ] ();
        ]
  in
  let expected = decomposed_delays net in
  check_bool "overload produces infinities" true
    (List.exists (fun (_, d) -> d = infinity) expected);
  same_delays "overloaded net" expected (stream_delays net)

(* --- determinism across jobs counts ------------------------------- *)

let test_jobs_determinism () =
  (* >= 10^4 servers on each corpus family: the sharded pass must be
     byte-identical between a sequential and a parallel pool. *)
  List.iter
    (fun family ->
      let net =
        Corpus.generate ~family ~target_servers:10_000 ~seed:11
      in
      check_bool
        (Corpus.to_string family ^ " is >= 10^4 servers")
        true
        (Network.size net >= 10_000);
      same_delays
        (Corpus.to_string family ^ " jobs 1 = jobs 4")
        (stream_delays ~jobs:1 net)
        (stream_delays ~jobs:4 net))
    Corpus.all

(* --- frontier accounting ------------------------------------------ *)

let test_frontier_bounded () =
  (* A deep topology: the live frontier must stay a small fraction of
     the total (flow, server) pairs a table-based pass would keep. *)
  let t = Tandem.make ~n:48 ~utilization:0.6 () in
  let s = Propagation_stream.analyze t.network in
  let st = Propagation_stream.frontier_stats s in
  check_bool "pairs counted" true
    (st.total_pairs = Network.total_hop_count t.network);
  check_bool "all pairs evicted" true (st.evicted = st.total_pairs);
  check_bool
    (Printf.sprintf "peak %d << pairs %d" st.peak_live st.total_pairs)
    true
    (4 * st.peak_live < st.total_pairs);
  check_bool "widest antichain bounds nothing upward" true
    (st.widest_antichain <= Network.size t.network)

let test_frontier_metrics () =
  Obs.enable ();
  Metrics.reset ();
  let t = Tandem.make ~n:8 ~utilization:0.5 () in
  ignore (Propagation_stream.analyze t.network);
  let snap = Metrics.snapshot () in
  let evicted =
    Option.value ~default:0
      (List.assoc_opt "propagation.frontier.evicted" snap.Metrics.counters)
  in
  let peak =
    Option.value ~default:0
      (List.assoc_opt "propagation.frontier.peak" snap.Metrics.peaks)
  in
  Obs.disable ();
  check_bool "evicted counter > 0" true (evicted > 0);
  check_bool "peak gauge > 0" true (peak > 0)

(* Allocation per constructed segment, as a count rather than a time:
   minor words over [pwl.segments.total] for one pass over the
   2000-server heavytail corpus net.  The list-based kernel and the
   [Int_map]/polymorphic-[Hashtbl] data layer read 182.7 here; the array
   scans and slot-indexed tables read about 130 on OCaml 5.1, and the
   bound leaves room for compiler and runtime drift.  [~jobs:1]: on
   OCaml 5 [Gc.minor_words] counts only the calling domain. *)
let test_stream_words_per_segment () =
  let net =
    Corpus.generate ~family:Corpus.Heavytail ~target_servers:2000 ~seed:1
  in
  let segments = Metrics.counter "pwl.segments.total" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let s0 = Metrics.value segments and w0 = Gc.minor_words () in
  ignore (Propagation_stream.analyze ~jobs:1 net);
  let words = Gc.minor_words () -. w0 in
  let segs = Metrics.value segments - s0 in
  let per_segment = words /. float_of_int segs in
  check_bool
    (Printf.sprintf "%.0f minor words over %d segments: %.1f per segment < 160"
       words segs per_segment)
    true
    (segs > 10_000 && per_segment < 160.)

(* --- antichain levels --------------------------------------------- *)

let test_levels () =
  let net =
    Randomnet.generate
      { Randomnet.default with layers = 6; per_layer = 2; num_flows = 16 }
  in
  let levels = Network.levels net in
  let level_of = Hashtbl.create 64 in
  List.iteri
    (fun i sids -> List.iter (fun s -> Hashtbl.replace level_of s i) sids)
    levels;
  Alcotest.(check int)
    "levels partition the servers" (Network.size net)
    (List.length (List.concat levels));
  List.iter
    (fun (a, b) ->
      check_bool
        (Printf.sprintf "edge %d->%d crosses levels upward" a b)
        true
        (Hashtbl.find level_of a < Hashtbl.find level_of b))
    (Network.edges net);
  Alcotest.(check int)
    "widest antichain"
    (List.fold_left (fun acc l -> max acc (List.length l)) 0 levels)
    (Network.widest_antichain net)

let test_levels_cyclic () =
  let arrival = Arrival.token_bucket ~sigma:1. ~rho:0.1 () in
  let net =
    Network.make
      ~servers:[ Server.make ~id:0 ~rate:1. (); Server.make ~id:1 ~rate:1. () ]
      ~flows:
        [
          Flow.make ~id:0 ~arrival ~route:[ 0; 1 ] ();
          Flow.make ~id:1 ~arrival ~route:[ 1; 0 ] ();
        ]
  in
  match Network.levels net with
  | _ -> Alcotest.fail "expected Network.Cyclic"
  | exception Network.Cyclic -> ()

let test_restrict () =
  let t = Tandem.make ~n:4 ~utilization:0.6 () in
  let sub = Network.restrict t.network ~flow_ids:[ 0 ] in
  Alcotest.(check int) "one flow kept" 1 (List.length (Network.flows sub));
  let f = Network.flow sub 0 in
  Alcotest.(check (list int))
    "servers are the kept route"
    (List.sort compare f.route)
    (List.sort compare
       (List.map (fun (s : Server.t) -> s.id) (Network.servers sub)));
  (* With cross traffic stripped, the lone flow's bound is finite and
     the sub-network analysis agrees between engines. *)
  same_delays "restricted identity" (decomposed_delays sub)
    (stream_delays sub)

(* --- corpus generators -------------------------------------------- *)

let flow_fingerprint (f : Flow.t) = (f.id, f.route, Flow.rate f, Flow.burst f)

let test_generators_deterministic () =
  List.iter
    (fun family ->
      let gen () = Corpus.generate ~family ~target_servers:600 ~seed:5 in
      let a = gen () and b = gen () in
      Alcotest.(check (list (pair int (pair (list int) (pair (float 0.) (float 0.)))))
        )
        (Corpus.to_string family ^ " same seed, same flows")
        (List.map
           (fun f ->
             let id, r, rho, sg = flow_fingerprint f in
             (id, (r, (rho, sg))))
           (Network.flows a))
        (List.map
           (fun f ->
             let id, r, rho, sg = flow_fingerprint f in
             (id, (r, (rho, sg))))
           (Network.flows b));
      let c = Corpus.generate ~family ~target_servers:600 ~seed:6 in
      check_bool
        (Corpus.to_string family ^ " different seed, different draws")
        false
        (List.map flow_fingerprint (Network.flows a)
        = List.map flow_fingerprint (Network.flows c)))
    Corpus.all

let test_generators_feedforward_and_stable () =
  List.iter
    (fun family ->
      let net = Corpus.generate ~family ~target_servers:600 ~seed:3 in
      check_bool (Corpus.to_string family ^ " feedforward") true
        (Network.is_feedforward net);
      check_bool (Corpus.to_string family ^ " stable") true
        (Network.stable net);
      check_bool
        (Corpus.to_string family ^ " near target size")
        true
        (let n = Network.size net in
         n >= 300 && n <= 1200))
    Corpus.all

let test_generator_sizes () =
  Alcotest.(check int)
    "leaf-spine size formula" 20
    (Network.size
       (Leaf_spine.generate { Leaf_spine.default with seed = 1 }));
  Alcotest.(check int)
    "fat-tree size formula"
    (Fat_tree.size Fat_tree.default)
    (Network.size (Fat_tree.generate Fat_tree.default));
  Alcotest.(check int)
    "edge-cloud size formula"
    (Edge_cloud.size Edge_cloud.default)
    (Network.size (Edge_cloud.generate Edge_cloud.default).Edge_cloud.net)

let test_edge_cloud_latency () =
  let g = Edge_cloud.generate Edge_cloud.default in
  List.iter
    (fun (f : Flow.t) ->
      let hops = List.length f.route in
      let base = List.assoc f.id g.Edge_cloud.base_latency in
      let p = Edge_cloud.default in
      let expected_local = p.Edge_cloud.hop_latency *. float_of_int (hops - 1) in
      let offloaded = hops > p.Edge_cloud.tiers in
      approx
        (Printf.sprintf "flow %d wire latency" f.id)
        (if offloaded then expected_local +. p.Edge_cloud.rtt
         else expected_local)
        base;
      approx "total = base + queueing"
        (base +. 1.5)
        (Edge_cloud.total_latency g ~queueing:1.5 f.id))
    (Network.flows g.Edge_cloud.net)

let test_dot_streaming () =
  (* The streamed writer and the string writer must emit the same
     bytes. *)
  let net = Corpus.generate ~family:Corpus.Fat_tree ~target_servers:36 ~seed:2 in
  let s = Dot.to_dot net in
  let tmp = Filename.temp_file "netcalc-test" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      Dot.output_net oc net;
      close_out oc;
      let ic = open_in_bin tmp in
      let len = in_channel_length ic in
      let streamed = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "streamed = string export" s streamed)

let suite =
  ( "stream",
    [
      test "tandem bit-identity (fig4-6 grid)" test_tandem_identity;
      test "tandem bit-identity (link-cap)" test_tandem_identity_sharpened;
      test "randomnet bit-identity" test_randomnet_identity;
      test "overload bit-identity" test_overload_identity;
      test "jobs 1 = jobs 4 at 10^4 servers" test_jobs_determinism;
      test "frontier bounded on a deep tandem" test_frontier_bounded;
      test "frontier metrics published" test_frontier_metrics;
      test "minor words per constructed segment" test_stream_words_per_segment;
      test "antichain levels" test_levels;
      test "levels reject cycles" test_levels_cyclic;
      test "restrict induced sub-network" test_restrict;
      test "corpus generators deterministic" test_generators_deterministic;
      test "corpus feedforward + stable" test_generators_feedforward_and_stable;
      test "generator size formulas" test_generator_sizes;
      test "edge-cloud wire latency" test_edge_cloud_latency;
      test "dot streaming equals string export" test_dot_streaming;
    ] )
