(* One benchmark workload, run as one process.

   The process runs a single workload as a closed loop with one caller:
   set-up (input generation, service construction, a fixed warm-up of
   ops drawn from the same generator), then timed ops until --seconds
   have passed (or --ops ops, for the determinism self-test), then the
   untimed output checks.  It prints one JSON object of raw
   measurements on stdout; run.py turns those into the benchmark's
   metrics.

   netcalc is driven only through user-facing entry points
   (Sweep_engine.tandem_grid, Corpus.generate + Propagation_stream,
   Serve.create + Serve.handle_line).  The benchmark calls none of the
   cache clears, memo toggles or curve-backend selectors: whatever the
   library does by default is what gets measured.

   With --reference, the process also times a fixed host reference
   computation that uses no netcalc code, between ops (never inside
   one); run.py scales the end-to-end times by it (see Reference).

   When NETCALC_OBS=1 (the traced run), each public call is also kept
   as an in-memory span, and the library's counters and the GC's word
   counts are read around it.  The library's own spans are matched to
   the calls that enclose them after the timed loop, and everything is
   written out when the run ends.  The untraced run reads only the
   clock. *)

(* The host reference's buffer (see Reference), allocated and touched
   before the process's entry time is read: set-up does not include it,
   and it is resident throughout, so peak RSS can leave it out exactly. *)
let reference_kb = 16 * 1024

let reference_buffer =
  if Array.mem "--reference" Sys.argv then begin
    let b = Bigarray.(Array1.create int c_layout (reference_kb * 1024 / 8)) in
    Bigarray.Array1.fill b 1;
    Some b
  end
  else None

(* Bechamel's monotonic clock (CLOCK_MONOTONIC, ns): immune to wall
   clock steps, unlike Trace.now_s, which reads gettimeofday. *)
let now () = Monotonic_clock.now ()
let entry_ns = now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let max_ops = ref 0
let setup_only = ref false
let trace_out = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-figs | deep-stream | admit-session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--ops", Arg.Set_int max_ops, "N run exactly N timed requests instead (self-test)");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--reference", Arg.Unit ignore, " also time the host reference computation (see Reference)");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the spans here (traced run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "workload.exe --workload NAME --seed N [--seconds S | --ops N]"

let traced = Obs.enabled ()

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> 0.
  | n ->
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sum = List.fold_left ( +. ) 0.
let ratio num den = if den = 0. then 0. else num /. den
let bits = Int64.bits_of_float
let push r x = r := x :: !r

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match In_channel.input_line ic with
    | None -> 0
    | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | Some _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let num x = Sjson.float_repr x
let int = Sjson.num_of_int
let nums xs = Sjson.List (List.rev_map num xs)

(* ------------------------------------------------------------------ *)
(* Host reference                                                      *)
(* ------------------------------------------------------------------ *)

(* A fixed computation that uses no netcalc code: 400k reads and writes
   at pseudo-random places of a 16 MB buffer outside the OCaml heap.
   The host this benchmark runs on changes speed by 30-60% over seconds
   to minutes (NOTES.md), mostly in how fast it reaches memory; this
   computation slows down with it about as much as the workloads do,
   while a change to netcalc leaves it alone.  run.py divides the
   end-to-end times by its median time, so a slow stretch of the host
   largely cancels out and a change to netcalc does not.

   It allocates nothing, so it never runs the GC, and its time does not
   depend on the heap the workload keeps. *)
module Reference = struct
  let touch (b : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
    let mask = Bigarray.Array1.dim b - 1 in
    let x = ref 88172645463325252 and sum = ref 0 in
    for _ = 1 to 400_000 do
      (* xorshift64 *)
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let j = !x land mask in
      sum := !sum + Bigarray.Array1.unsafe_get b j;
      Bigarray.Array1.unsafe_set b j !sum
    done;
    !sum

  (* Times (ms) of the runs: the first [after_setup] right after set-up,
     the rest in the timed loop.  A preallocated float array, so that
     taking a sample allocates nothing and leaves the GC's schedule as it
     would be without it. *)
  let after_setup = 7
  let capacity = 8192
  let ms = Array.make capacity 0.
  let count = ref 0

  let time () =
    match reference_buffer with
    | Some b when !count < capacity ->
        let t0 = now () in
        ignore (Sys.opaque_identity (touch b));
        ms.(!count) <- ms_between t0 (now ());
        incr count
    | _ -> ()

  let setup_ms () = Array.to_list (Array.sub ms 0 (min !count after_setup))
  let loop_ms () = Array.to_list (Array.sub ms after_setup (max 0 (!count - after_setup)))
end

(* ------------------------------------------------------------------ *)
(* Measurement state                                                   *)
(* ------------------------------------------------------------------ *)

(* False during set-up and warm-up: nothing is recorded. *)
let recording = ref false
let requests = ref 0
let failed = ref 0
let work = ref 0.

(* Latencies (newest first) of every timed request, of the workload's
   op (grid op, network op, or admit-session write), and of the
   admit-session reads. *)
let request_ms = ref []
let op_ms = ref []
let read_ms = ref []

let fail_request () = if !recording then incr failed

(* Traced run: one span per public call, newest first.  [wall0_us] and
   [wall1_us] bracket the call on the clock the library's own spans use
   (Trace.now_us), read outside the timed window; they only place the
   library's spans inside the call, they time nothing. *)
type span = {
  name : string;
  req : int;
  start_ns : int64;
  dur_ns : int64;
  wall0_us : float;
  wall1_us : float;
}

let spans = ref []

(* Library counters summed over the timed calls, read by name. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 64
let counter name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name))
let gc_minor = ref 0.
let gc_major = ref 0.
let gc_major_collections = ref 0

(* [call name f] times one public call into netcalc.  The returned
   latency covers [f] alone; in a traced run the counter, GC and span
   reads happen outside it. *)
let call name f =
  if traced && !recording then begin
    let c0 = (Metrics.snapshot ()).counters in
    let w0 = Trace.now_us () in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    let w1 = Trace.now_us () in
    let c1 = (Metrics.snapshot ()).counters in
    gc_minor := !gc_minor +. (g1.minor_words -. g0.minor_words);
    gc_major := !gc_major +. (g1.major_words -. g0.major_words);
    gc_major_collections := !gc_major_collections + g1.major_collections - g0.major_collections;
    List.iter
      (fun (n, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt n c0) in
        if d <> 0 then
          Hashtbl.replace counters n (d + Option.value ~default:0 (Hashtbl.find_opt counters n)))
      c1;
    push spans
      { name; req = !requests; start_ns = t0; dur_ns = Int64.sub t1 t0; wall0_us = w0; wall1_us = w1 };
    (r, ms_between t0 t1)
  end
  else
    let t0 = now () in
    let r = f () in
    (r, ms_between t0 (now ()))

(* A timing of harness-side work, taken after the timed loop. *)
let time_ms f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  ms_between t0 (now ())

(* The library's spans.  Trace.clear empties the ring, and the next
   span reallocates it; [reset_library_spans] therefore records one
   throwaway span right away, so that the allocation happens here and
   not inside a timed call. *)
let prime = "perfbench.prime"

let reset_library_spans () =
  Trace.clear ();
  Trace.with_span prime ignore

(* Outermost library span time inside each call, in us, matched by the
   wall-clock brackets: both lists are in time order.  Returns the
   (span, library us) pairs of the calls the ring still covers. *)
let attribute_library_spans () =
  let all = Trace.events () in
  let evs = List.filter (fun (e : Trace.event) -> e.depth = 0 && e.name <> prime) all in
  (* Once the ring has dropped events, calls older than its oldest
     event are left out. *)
  let oldest = match all with e :: _ when Trace.dropped () > 0 -> e.ts_us | _ -> neg_infinity in
  let rec go acc evs = function
    | [] -> List.rev acc
    | s :: rest ->
        let rec take us = function
          | (e : Trace.event) :: tl when e.ts_us < s.wall1_us ->
              take (if e.ts_us >= s.wall0_us then us +. e.dur_us else us) tl
          | l -> (us, l)
        in
        let us, evs = take 0. evs in
        go (if s.wall0_us >= oldest then (s, us) :: acc else acc) evs rest
  in
  go [] evs (List.rev !spans)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  warmup : int;  (** ops (admit-session: requests) run inside set-up *)
  rss_ops : int;
      (** the timed op count at which peak RSS is read, so that it
          covers the same work on a fast host and a slow one *)
  step : unit -> unit;  (** one request, recorded into the state above *)
  after_loop : unit -> (string * float) list;
      (** untimed harness-side timings, run after the loop (traced run) *)
  check : unit -> unit;  (** untimed end-of-run output checks *)
  layers : unit -> (string * float) list;  (** workload-specific layer metrics *)
}

let rng_for salt = Random.State.make [| !seed; salt |]

(* paper-figs: Figures 4/5/6 regenerated for one seed-drawn tandem per
   op — 3 Sweep_engine.tandem_grid calls, 99 cells.  The burst sigma is
   drawn log-uniformly from [1, 8], the range of the paper's Sec. 4.1
   burstiness claim (the repo's `burstiness` experiment runs sigma in
   {1, 2, 4, 8}); the peak rate is 1, as in the paper's figures.  A
   continuous draw makes every op a new tandem, so the reuse layers
   serve what the tandems share, not a repeat of the previous op. *)
let paper_figs () =
  let figures = [ [ 2; 4; 6; 8 ]; [ 2; 4; 8 ]; [ 2; 4; 6; 8 ] ] in
  let loads = Sweep.steps ~lo:0.1 ~hi:0.9 ~step:0.1 in
  let peak = 1. in
  let rng = rng_for 1 in
  let grid_ms = ref [] in
  (* (sigma, decomposed bound per (U, n)) of every timed op, for the
     stream cross-check after the loop. *)
  let kept = ref [] in
  let step () =
    let sigma = 2. ** Random.State.float rng 3. in
    let lat = ref 0. in
    let cells =
      List.concat_map
        (fun hops ->
          let grid, ms =
            call "core.grid" (fun () -> Sweep_engine.tandem_grid ~sigma ~peak ~hops ~loads ())
          in
          lat := !lat +. ms;
          if !recording then push grid_ms ms;
          List.combine (List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads) grid)
        figures
    in
    if !recording then begin
      push op_ms !lat;
      push request_ms !lat;
      work := !work +. float_of_int (List.length cells);
      if
        not
          (List.for_all
             (fun (_, (c : Engine.comparison)) ->
               c.integrated <= c.decomposed && c.integrated <= c.service_curve)
             cells)
      then fail_request ();
      push kept (sigma, List.map (fun (k, (c : Engine.comparison)) -> (k, c.decomposed)) cells)
    end
  in
  let check () =
    (* Every cell's decomposed bound = the streaming engine on the same
       tandem, bit for bit. *)
    List.iter
      (fun (sigma, cells) ->
        let memo = Hashtbl.create 64 in
        let stream (u, n) =
          match Hashtbl.find_opt memo (u, n) with
          | Some d -> d
          | None ->
              let t = Tandem.make ~n ~utilization:u ~sigma ~peak () in
              let d =
                Propagation_stream.flow_delay
                  (Propagation_stream.analyze t.network)
                  t.conn0.id
              in
              Hashtbl.replace memo (u, n) d;
              d
        in
        if not (List.for_all (fun (k, d) -> Int64.equal (bits d) (bits (stream k))) cells) then
          incr failed)
      !kept
  in
  let layers () = [ ("core.grid_ms", quantile 0.5 !grid_ms) ] in
  { warmup = 20; rss_ops = 400; step; after_loop = (fun () -> []); check; layers }

(* deep-stream: one fresh heavytail network per op, generated just
   before it, streamed through Propagation_stream and dropped. *)
let deep_stream () =
  let servers = 2000 in
  let rng = rng_for 2 and sample_rng = rng_for 3 in
  let gen_ms = ref [] and stream_ms = ref [] in
  let levels = ref 0 and pairs = ref 0 and peak_live = ref 0 in
  (* Seeded sample of (network seed, streamed bounds) for the table
     engine cross-check after the loop; op 0 is always sampled. *)
  let sampled = ref [] in
  let generate net_seed =
    Corpus.generate ~family:Corpus.Heavytail ~target_servers:servers ~seed:net_seed
  in
  let step () =
    let net_seed = Random.State.bits rng in
    let keep = !requests = 0 || Random.State.int sample_rng 16 = 0 in
    let net, g = call "topology.generate" (fun () -> generate net_seed) in
    let s, a = call "core.stream" (fun () -> Propagation_stream.analyze net) in
    let delays, r = call "core.stream_read" (fun () -> Propagation_stream.all_flow_delays s) in
    if !recording then begin
      push op_ms (g +. a +. r);
      push request_ms (g +. a +. r);
      push gen_ms g;
      push stream_ms a;
      work := !work +. float_of_int (Network.size net);
      let st = Propagation_stream.frontier_stats s in
      levels := !levels + st.levels;
      pairs := !pairs + st.total_pairs;
      peak_live := !peak_live + st.peak_live;
      if keep then push sampled (net_seed, delays)
    end
  in
  let check () =
    List.iter
      (fun (net_seed, delays) ->
        let table = Decomposed.all_flow_delays (Decomposed.analyze (generate net_seed)) in
        let same =
          List.length table = List.length delays
          && List.for_all2 (fun (i, d) (j, e) -> i = j && Int64.equal (bits d) (bits e)) table delays
        in
        if not same then incr failed)
      !sampled
  in
  let layers () =
    let stream_us = sum !stream_ms *. 1e3 and pairs = float_of_int !pairs in
    [
      ("topology.generate_ms", ratio (sum !gen_ms) (float_of_int !requests));
      ("core.stream_ms", quantile 0.5 !stream_ms);
      ("core.stream_us_per_level", ratio stream_us (float_of_int !levels));
      ("core.stream_us_per_hop", ratio stream_us pairs);
      ("core.frontier_pairs", ratio pairs (float_of_int !requests));
      ("core.frontier_peak_ratio", ratio (float_of_int !peak_live) pairs);
      ("count.frontier_peak_sum", float_of_int !peak_live);
    ]
  in
  { warmup = 3; rss_ops = 120; step; after_loop = (fun () -> []); check; layers }

(* admit-session: one Serve delta session over an edge-cloud network.
   3/4 of the generated flows are the standing population (never torn
   down), 1/4 the candidate pool.  The requests follow two scripts the
   repo already documents:
   - the serve-churn experiment (bench/main.ml, EXPERIMENTS.md): admit
     a candidate; once more than [window] = 8 admitted sessions are
     live, tear down the oldest;
   - the serve transcript in README.md: an accepted admit is followed
     by a query of the flow it admitted.
   One in four admits carries a deadline no queued flow can meet, so
   rejection and rollback run too.  That share is an assumption (the
   repo records no rejection rate): it gives every run hundreds of
   rejections while accepted admits stay the common case.  Requests go
   through Serve.handle_line in process, one at a time. *)
let admit_session () =
  let window = 8 in
  let rng = rng_for 4 in
  let net, gen_ms =
    call "topology.generate" (fun () ->
        Corpus.generate ~family:Corpus.Edge_cloud ~target_servers:2000
          ~seed:(Random.State.bits rng))
  in
  let servers = Network.servers net in
  let all = Array.of_list (Network.flows net) in
  (* Seeded 3/4 : 1/4 split, each side kept in generation order. *)
  let order = Array.init (Array.length all) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let in_pool = Array.make (Array.length all) false in
  Array.iteri (fun k i -> if k < Array.length all / 4 then in_pool.(i) <- true) order;
  let base = List.filteri (fun i _ -> not in_pool.(i)) (Array.to_list all) in
  let pool = Array.of_list (List.filteri (fun i _ -> in_pool.(i)) (Array.to_list all)) in
  let t, create_ms =
    call "serve.create" (fun () -> Serve.create ~mode:Serve.Delta ~servers ~flows:base ())
  in
  (* Pool state: [free] holds pool indices not in the network; [live]
     the admitted ones, oldest first, which is the order the delta
     engine keeps and a from-scratch check must replicate.  [next]
     holds the requests the script has queued behind the last admit. *)
  let free = ref (List.init (Array.length pool) Fun.id) in
  let live = Queue.create () in
  let next = Queue.create () in
  let admitted_flow : (int, Flow.t) Hashtbl.t = Hashtbl.create 16 in
  let live_flows () = base @ List.map (Hashtbl.find admitted_flow) (List.of_seq (Queue.to_seq live)) in
  let request fields = Sjson.render (Sjson.Obj fields) in
  (* The admit request for pool flow [k], and the flow the service
     builds from it. *)
  let admit_request k ~tight =
    let f = pool.(k) in
    let sigma, rho, peak = Arrival.token_params f.arrival in
    (* Tight: 1e-6, which every flow with a nonzero bound misses, so
       the admit is rejected and rolled back (a flow that never queues
       has bound 0 and is admitted).  Otherwise 1e6, which every bound
       in these networks meets. *)
    let deadline = if tight then 1e-6 else 1e6 in
    let line =
      request
        [
          ("op", Sjson.Str "admit");
          ( "flow",
            Sjson.Obj
              [
                ("id", int f.id); ("sigma", num sigma); ("rho", num rho);
                ("route", Sjson.List (List.map int f.route));
                ("deadline", num deadline); ("peak", num peak);
              ] );
        ]
    in
    let arrival = Arrival.token_bucket ~peak ~sigma ~rho () in
    (line, Flow.make ~id:f.id ~arrival ~route:f.route ~deadline ())
  in
  let query k = request [ ("op", Sjson.Str "query"); ("flow", int pool.(k).id) ] in
  let teardown k = request [ ("op", Sjson.Str "teardown"); ("flow", int pool.(k).id) ] in
  let reads = ref 0 and writes = ref 0 and admits = ref 0 and rejects = ref 0 in
  let tight_admits = ref 0 and tight_rejects = ref 0 in
  let cone = ref 0 and reused = ref 0 in
  let write_ms = ref [] in
  (* Traced run: the admitted flows live at every 8th write, and every
     4th request line, for the harness-side timings after the loop. *)
  let live_at_writes = ref [] and sampled_lines = ref [] in
  let field name j = Sjson.member name j in
  let int_field name j = Option.value ~default:0 (Option.bind (field name j) Sjson.to_int) in
  let is_typed_rejection j =
    field "ok" j = Some (Sjson.Bool false)
    && field "error" j = Some (Sjson.Str "rejected")
    && Option.is_some (field "reason" j)
  in
  let step () =
    let kind =
      match Queue.take_opt next with
      | Some kind -> kind
      | None ->
          let k = List.nth !free (Random.State.int rng (List.length !free)) in
          `Admit (k, Random.State.int rng 4 = 0)
    in
    let line, flow =
      match kind with
      | `Admit (k, tight) ->
          let line, flow = admit_request k ~tight in
          (line, Some flow)
      | `Query k -> (query k, None)
      | `Teardown k -> (teardown k, None)
    in
    let resp, ms = call "serve.handle_line" (fun () -> Serve.handle_line t line) in
    let j = try Sjson.parse resp with Sjson.Parse_error _ -> Sjson.Null in
    let ok = field "ok" j = Some (Sjson.Bool true) in
    (match (kind, flow) with
    | `Admit (k, _), Some flow when ok ->
        free := List.filter (( <> ) k) !free;
        Queue.add k live;
        Hashtbl.replace admitted_flow k flow;
        Queue.add (`Query k) next;
        if Queue.length live > window then Queue.add (`Teardown (Queue.peek live)) next
    | `Teardown k, _ when ok ->
        (* the oldest admitted session *)
        ignore (Queue.take live);
        push free k
    | `Admit _, _ when is_typed_rejection j -> ()
    | _ ->
        if not ok then begin
          if !recording && !failed < 5 then prerr_endline ("workload.exe: " ^ line ^ " -> " ^ resp);
          fail_request ()
        end);
    if !recording then begin
      push request_ms ms;
      work := !work +. 1.;
      if traced && !requests mod 4 = 0 then push sampled_lines line;
      match kind with
      | `Query _ ->
          incr reads;
          push read_ms ms
      | `Admit _ | `Teardown _ ->
          incr writes;
          push op_ms ms;
          push write_ms ms;
          cone := !cone + int_field "cone_nodes" j;
          reused := !reused + int_field "reused_nodes" j;
          (match kind with
          | `Admit (_, tight) ->
              incr admits;
              if not ok then incr rejects;
              if tight then incr tight_admits;
              if tight && not ok then incr tight_rejects
          | _ -> ());
          if traced && !writes mod 8 = 0 then
            push live_at_writes (List.map (Hashtbl.find admitted_flow) (List.of_seq (Queue.to_seq live)))
    end
  in
  let after_loop () =
    (* Network.with_flows on the flow list each sampled write left
       behind, and Sjson.parse on the sampled request lines. *)
    let with_flows =
      List.map (fun admitted -> time_ms (fun () -> Network.with_flows net (base @ admitted))) !live_at_writes
    in
    let parse = List.map (fun l -> 1e3 *. time_ms (fun () -> Sjson.parse l)) !sampled_lines in
    [ ("topology.with_flows_ms", quantile 0.5 with_flows); ("serve.parse_us", quantile 0.5 parse) ]
  in
  let check () =
    (* Every live flow's served bound = a from-scratch Decomposed
       analysis of the same flow list in the same order, bit for bit. *)
    let flows = live_flows () in
    let scratch = Decomposed.analyze (Network.make ~servers ~flows) in
    List.iter
      (fun (f : Flow.t) ->
        let served =
          match
            Sjson.parse (Serve.handle_line t (request [ ("op", Sjson.Str "query"); ("flow", int f.id) ]))
          with
          | j -> Option.bind (field "bound" j) Sjson.to_float
          | exception Sjson.Parse_error _ -> None
        in
        match served with
        | Some b when Int64.equal (bits b) (bits (Decomposed.flow_delay scratch f.id)) -> ()
        | _ -> incr failed)
      flows
  in
  let layers () =
    let w = float_of_int !writes in
    [
      ("topology.generate_ms", gen_ms);
      ("serve.create_ms", create_ms);
      ("serve.writes", w);
      ("serve.cone_per_write", ratio (float_of_int !cone) w);
      ("serve.reuse_ratio", ratio (float_of_int !reused) (float_of_int (!cone + !reused)));
      ("serve.write_us_per_cone_node", ratio (sum !write_ms *. 1e3) (float_of_int !cone));
      ("serve.admits", float_of_int !admits);
      ("serve.reject_ratio", ratio (float_of_int !rejects) (float_of_int !admits));
      ("count.reads", float_of_int !reads);
      ("count.rejects", float_of_int !rejects);
      ("count.tight_admits", float_of_int !tight_admits);
      ("count.tight_rejects", float_of_int !tight_rejects);
      ("count.cone_nodes", float_of_int !cone);
      ("count.reused_nodes", float_of_int !reused);
    ]
  in
  { warmup = 50; rss_ops = 1000; step; after_loop; check; layers }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* The layer metrics every workload reports in a traced run. *)
let common_layers () =
  let n = float_of_int (max 1 !requests) in
  let hits = counter "pwl.cache.hits" and misses = counter "pwl.cache.misses" in
  let ihits = counter "pwl.intern.hits" and imisses = counter "pwl.intern.misses" in
  let reuse = counter "incremental.reuse" and recompute = counter "incremental.recompute" in
  let peak = Option.value ~default:0 (List.assoc_opt "pwl.segments.max" (Metrics.snapshot ()).peaks) in
  let lib_us name =
    match List.assoc_opt name (Trace.aggregates ()) with Some a -> a.total_us | None -> 0.
  in
  let covered = attribute_library_spans () in
  let covered_ms = sum (List.map (fun (s, _) -> Int64.to_float s.dur_ns /. 1e6) covered) in
  [
    ("pwl.make_calls", counter "pwl.make.calls" /. n);
    ("pwl.segments_total", counter "pwl.segments.total" /. n);
    ("pwl.segments_max", float_of_int peak);
    ("pwl.conv_calls", counter "pwl.conv.calls" /. n);
    ("pwl.cache_lookups", (hits +. misses) /. n);
    ("pwl.cache_hit_ratio", ratio hits (hits +. misses));
    ("pwl.intern_lookups", (ihits +. imisses) /. n);
    ("pwl.intern_hit_ratio", ratio ihits (ihits +. imisses));
    ("core.integrated_ms", lib_us "integrated.analyze" /. (n *. 1e3));
    ("core.pair_ms", lib_us "pair.analyze" /. (n *. 1e3));
    ("core.pair_calls", counter "pair.analyze.calls" /. n);
    ("core.memo_lookups", (reuse +. recompute) /. n);
    ("core.memo_reuse_ratio", ratio reuse (reuse +. recompute));
    ("gc.minor_words_per_op", !gc_minor /. n);
    ("gc.major_words_per_op", !gc_major /. n);
    ("gc.major_collections", float_of_int !gc_major_collections /. n);
    ("trace.coverage", ratio (sum (List.map snd covered) /. 1e3) covered_ms);
  ]

(* The library counters the layer metrics read; one that is no longer
   registered is reported as absent (and reads as 0). *)
let read_counters =
  [ "pwl.make.calls"; "pwl.segments.total"; "pwl.conv.calls"; "pwl.cache.hits";
    "pwl.cache.misses"; "pwl.intern.hits"; "pwl.intern.misses"; "incremental.reuse";
    "incremental.recompute"; "pair.analyze.calls" ]

let write_trace file =
  let covered = attribute_library_spans () in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (s, lib_us) ->
      let calls, total, lib = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name
        (calls + 1, total +. (Int64.to_float s.dur_ns /. 1e6), lib +. (lib_us /. 1e3)))
    covered;
  let table =
    Hashtbl.fold
      (fun name (calls, total, lib) acc ->
        Sjson.Obj
          [
            ("name", Sjson.Str name); ("calls", int calls); ("total_ms", num total);
            ("self_ms", num (total -. lib)); ("children_ms", num lib);
          ]
        :: acc)
      by_name []
  in
  let lib_table =
    List.filter_map
      (fun (name, (a : Trace.agg)) ->
        if name = prime then None
        else
          Some
            (Sjson.Obj
               [ ("name", Sjson.Str name); ("calls", int a.calls); ("total_ms", num (a.total_us /. 1e3)) ]))
      (Trace.aggregates ())
  in
  let events =
    List.map
      (fun (s, lib_us) ->
        Sjson.Obj
          [
            ("name", Sjson.Str s.name); ("ph", Sjson.Str "X"); ("pid", int 1); ("tid", int 1);
            ("ts", num (Int64.to_float (Int64.sub s.start_ns entry_ns) /. 1e3));
            ("dur", num (Int64.to_float s.dur_ns /. 1e3));
            ("args", Sjson.Obj [ ("request", int s.req); ("library_span_us", num lib_us) ]);
          ])
      covered
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Sjson.render
           (Sjson.Obj
              [
                ("traceEvents", Sjson.List events);
                ("displayTimeUnit", Sjson.Str "ms");
                ("spans", Sjson.List table);
                ("library_spans", Sjson.List lib_table);
                ("library_spans_dropped", int (Trace.dropped ()));
              ])))

let () =
  let w =
    match !workload with
    | "paper-figs" -> paper_figs ()
    | "deep-stream" -> deep_stream ()
    | "admit-session" -> admit_session ()
    | other ->
        prerr_endline ("workload.exe: unknown workload " ^ other);
        exit 2
  in
  for _ = 1 to w.warmup do
    w.step ()
  done;
  let setup_s = ms_between entry_ns (now ()) /. 1e3 in
  (* The host reference runs a fixed number of times right after
     set-up, and then between ops, about every 200 ms of the loop. *)
  let reference_every_ns = 200_000_000 in
  let with_reference = Option.is_some reference_buffer in
  if with_reference then
    for _ = 1 to Reference.after_setup do
      Reference.time ()
    done;
  (* [nums] reverses: these lists are oldest first. *)
  let oldest_first l = nums (List.rev l) in
  let setup_reference_ms = ("setup_reference_ms", oldest_first (Reference.setup_ms ())) in
  if !setup_only then begin
    print_endline (Sjson.render (Sjson.Obj [ ("setup_s", num setup_s); setup_reference_ms ]));
    exit 0
  end;
  if traced then begin
    reset_library_spans ();
    Metrics.reset ()
  end;
  recording := true;
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (!seconds *. 1e9)) in
  let next_reference = ref (Int64.to_int t0 + reference_every_ns) in
  let continue () =
    if !max_ops > 0 then !requests < !max_ops else Int64.compare (now ()) deadline < 0
  in
  let rss_at_ops = ref None in
  while continue () do
    (try w.step ()
     with e ->
       prerr_endline ("workload.exe: request raised " ^ Printexc.to_string e);
       incr failed);
    incr requests;
    if !rss_at_ops = None && List.length !op_ms >= w.rss_ops then rss_at_ops := Some (vm_hwm_kb ());
    if with_reference && Int64.to_int (now ()) >= !next_reference then begin
      Reference.time ();
      next_reference := Int64.to_int (now ()) + reference_every_ns
    end
  done;
  (* Peak RSS leaves out the reference buffer.  A run too short to reach
     [rss_ops] reads it at its end. *)
  let rss_of_workload kb = if with_reference then kb - reference_kb else kb in
  let peak_rss_end_kb = rss_of_workload (vm_hwm_kb ()) in
  let peak_rss_kb = Option.value ~default:peak_rss_end_kb (Option.map rss_of_workload !rss_at_ops) in
  let layers = if traced then common_layers () @ w.layers () else [] in
  recording := false;
  let layers = if traced then layers @ w.after_loop () else layers in
  let c0 = now () in
  (try w.check ()
   with e ->
     prerr_endline ("workload.exe: check raised " ^ Printexc.to_string e);
     incr failed);
  let check_s = ms_between c0 (now ()) /. 1e3 in
  let count_layers, layers =
    List.partition (fun (k, _) -> String.starts_with ~prefix:"count." k) layers
  in
  (* Counts that must repeat exactly for a fixed seed and op count. *)
  let counts =
    if not traced then []
    else
      [
        ("requests", int !requests); ("gc.minor_words", num !gc_minor);
        ("gc.major_words", num !gc_major); ("gc.major_collections", int !gc_major_collections);
        ("pwl.segments_max", num (List.assoc "pwl.segments_max" layers));
      ]
      @ List.map
          (fun (k, v) -> (k, int v))
          (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []))
      @ List.filter_map
          (fun (k, (a : Trace.agg)) -> if k = prime then None else Some ("span_calls." ^ k, int a.calls))
          (Trace.aggregates ())
      @ List.map (fun (k, v) -> (k, num v)) count_layers
  in
  let registered = List.map fst (Metrics.snapshot ()).counters in
  let absent = List.filter (fun c -> traced && not (List.mem c registered)) read_counters in
  let gc = Gc.get () in
  if traced && !trace_out <> "" then write_trace !trace_out;
  print_endline
    (Sjson.render
       (Sjson.Obj
          [
            ("workload", Sjson.Str !workload);
            ("seed", int !seed);
            ("traced", Sjson.Bool traced);
            ("setup_s", num setup_s);
            ("attempted", int !requests);
            ("failed", int !failed);
            ("check_s", num check_s);
            ("work", num !work);
            ("busy_s", num (sum !request_ms /. 1e3));
            ("op_p50_ms", num (quantile 0.5 !op_ms));
            ("op_p90_ms", num (quantile 0.9 !op_ms));
            ("op_samples", int (List.length !op_ms));
            ("read_p50_ms", num (quantile 0.5 !read_ms));
            ("read_p90_ms", num (quantile 0.9 !read_ms));
            ("peak_rss_kb", int peak_rss_kb);
            ("peak_rss_at_ops", Sjson.Bool (Option.is_some !rss_at_ops));
            ("peak_rss_end_kb", int peak_rss_end_kb);
            setup_reference_ms;
            ("reference_ms", oldest_first (Reference.loop_ms ()));
            ("op_ms", nums !op_ms);
            ("layers", Sjson.Obj (List.map (fun (k, v) -> (k, num v)) layers));
            ("counts", Sjson.Obj counts);
            ("absent_counters", Sjson.List (List.map (fun c -> Sjson.Str c) absent));
            ( "env",
              Sjson.Obj
                [
                  ("ocaml", Sjson.Str Sys.ocaml_version);
                  ("par_backend", Sjson.Str Par.backend);
                  ("jobs", int (Par.jobs ()));
                  ("minor_heap_size", int gc.minor_heap_size);
                  ("space_overhead", int gc.space_overhead);
                  ("max_overhead", int gc.max_overhead);
                  ("stack_limit", int gc.stack_limit);
                ] );
          ]))
