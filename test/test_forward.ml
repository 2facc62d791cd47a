(* The forward pass's per-server arithmetic: the local delays and
   per-hop backlogs Forward reads off each server's aggregate, checked
   bit for bit against a flow-by-flow reference. *)

open Testutil

let bits = Int64.bits_of_float

(* A Randomnet net recast to one discipline: priorities [id mod 3] (so
   a class holds several flows), GPS weights and EDF deadlines that
   vary by flow.  [unstable] overloads one server, so the pass poisons
   the hops past it. *)
let recast ~seed ~unstable discipline =
  let net =
    Randomnet.generate
      {
        Randomnet.default with
        layers = 3;
        per_layer = 2;
        num_flows = 18;
        rate_spread = 0.3;
        seed;
      }
  in
  let overloaded = seed mod Network.size net in
  let servers =
    List.map
      (fun (s : Server.t) ->
        let rate =
          if unstable && s.id = overloaded then s.rate /. 2. else s.rate
        in
        Server.make ~id:s.id ~name:s.name ~rate ~discipline ())
      (Network.servers net)
  in
  let flows =
    List.map
      (fun (f : Flow.t) ->
        let hops = float_of_int (List.length f.route) in
        Flow.make ~id:f.id ~name:f.name ~arrival:f.arrival ~route:f.route
          ~priority:(f.id mod 3)
          ~weight:(1. +. float_of_int (f.id mod 4))
          ~deadline:(hops *. (1. +. float_of_int (f.id mod 5)))
          ())
      (Network.flows net)
  in
  Network.make ~servers ~flows

let disciplines = Discipline.[ Fifo; Static_priority; Gps; Edf ]

let option_sets =
  [
    ("default", Options.default);
    ("link-cap", Options.sharpened);
    ("sp_blocking 0.3", Options.with_blocking 0.3 Options.default);
  ]

(* Every flow's local delay and per-hop backlog at every server, as
   Decomposed reports them and as the reference recomputes them from
   the same input envelopes: [Error] naming the first mismatch, else
   [Ok] with how many servers were past an unstable one. *)
let compare_to_reference ~options net =
  let a = Decomposed.analyze ~options net in
  let mismatch = ref None and poisoned = ref 0 in
  List.iter
    (fun (s : Server.t) ->
      let present = Network.flows_at net s.id in
      let env (f : Flow.t) = Decomposed.envelope_at a ~flow:f.id ~server:s.id in
      let expected =
        match List.map env present with
        | exception Invalid_argument _ ->
            incr poisoned;
            List.map (fun (f : Flow.t) -> (f, infinity, infinity)) present
        | _ ->
            List.map
              (fun (f : Flow.t) ->
                let d =
                  Per_flow_reference.local_delay ~options net ~env
                    ~server:s.id f
                in
                ( f,
                  d,
                  Per_flow_reference.local_backlog ~options net ~env
                    ~server:s.id ~local_delay:d f ))
              present
      in
      List.iter
        (fun ((f : Flow.t), d, b) ->
          let d' = Decomposed.local_delay a ~flow:f.id ~server:s.id
          and b' = Decomposed.local_backlog a ~flow:f.id ~server:s.id in
          if (bits d <> bits d' || bits b <> bits b') && !mismatch = None then
            mismatch :=
              Some
                (Printf.sprintf
                   "flow %d at server %d: delay %h vs %h, backlog %h vs %h"
                   f.id s.id d d' b b'))
        expected)
    (Network.servers net);
  match !mismatch with Some m -> Error m | None -> Ok !poisoned

let prop_matches_per_flow_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"local delays and backlogs = per-flow reference, bit for bit"
       ~print:(fun (seed, unstable) ->
         Printf.sprintf "seed %d%s" seed (if unstable then " unstable" else ""))
       QCheck2.Gen.(pair (int_range 1 100_000) bool)
       (fun (seed, unstable) ->
         List.for_all
           (fun discipline ->
             let net = recast ~seed ~unstable discipline in
             List.for_all
               (fun (name, options) ->
                 match compare_to_reference ~options net with
                 | Ok _ -> true
                 | Error m ->
                     QCheck2.Test.fail_reportf "%s, %s: %s"
                       (Discipline.to_string discipline) name m)
               option_sets)
           disciplines))

(* The recast nets reach every branch: a poisoned server under each
   discipline, and finite bounds elsewhere. *)
let test_reference_covers_poisoning () =
  List.iter
    (fun discipline ->
      let net = recast ~seed:3 ~unstable:true discipline in
      match compare_to_reference ~options:Options.default net with
      | Error m -> Alcotest.fail m
      | Ok poisoned ->
          check_bool
            (Printf.sprintf "%s: some server past an unstable one"
               (Discipline.to_string discipline))
            true (poisoned > 0))
    disciplines

let test_edf_without_deadline_raises () =
  let net =
    Network.make
      ~servers:
        [
          Server.make ~id:0 ~name:"edf0" ~rate:1. ~discipline:Discipline.Edf ();
          Server.make ~id:1 ~rate:1. ();
        ]
      ~flows:
        [
          Flow.make ~id:0 ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ())
            ~route:[ 0; 1 ] ~deadline:10. ();
          Flow.make ~id:1 ~name:"late"
            ~arrival:(Arrival.token_bucket ~sigma:1. ~rho:0.1 ())
            ~route:[ 0; 1 ] ();
        ]
  in
  match Decomposed.analyze net with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument reason ->
      Alcotest.(check string)
        "names the flow and the server"
        "flow late has no deadline but crosses EDF server edf0" reason

let suite =
  ( "forward",
    [
      prop_matches_per_flow_reference;
      test "reference covers poisoned servers" test_reference_covers_poisoning;
      test "EDF flow without a deadline raises"
        test_edf_without_deadline_raises;
    ] )
