type event = { name : string; ts_us : float; dur_us : float; depth : int }

let t0 = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. t0) *. 1e6
let now_s () = now_us () /. 1e6

(* Ring buffer of completed events, newest kept.  Allocated lazily on
   the first record so that processes that never enable observability
   (the default) do not pay for a large array at startup.  Ring,
   counters and aggregates are shared across domains and guarded by
   [m]: netcalc.par workers record spans concurrently, and an unlocked
   ring would tear its indices. *)
let m = Obs_sync.create ()
let cap =
  ref 65536
[@@lint.waive
    "cache-key: trace ring capacity; observability state never feeds back \
     into computed bounds"]
let ring : event option array ref = ref [||]
let write_idx =
  ref 0
[@@lint.waive
    "cache-key: trace ring cursor; observability state never feeds back \
     into computed bounds"]
let stored =
  ref 0
[@@lint.waive
    "cache-key: trace ring counter; observability state never feeds back \
     into computed bounds"]
let dropped_count =
  ref 0
[@@lint.waive
    "cache-key: trace ring counter; observability state never feeds back \
     into computed bounds"]

(* Open spans, innermost first — per domain.  Span nesting is a
   property of one thread of control: a worker's spans must pop in the
   worker's own LIFO order, never interleave with another domain's.
   The recorded [depth] is likewise the domain-local nesting depth. *)
let stack = Obs_sync.make_local (fun () -> ref [])

(* Exact per-name aggregates, immune to ring eviction, updated in
   place.  The durations live in an all-float record, which OCaml
   stores unboxed, so recording a span never keeps a box alive
   depending on whether it set a new maximum. *)
type agg = { calls : int; total_us : float; max_us : float }
type durations = { mutable total : float; mutable longest : float }
type cell = { mutable n : int; d : durations }

let aggs : (string, cell) Hashtbl.t = Hashtbl.create 32

let clear () =
  Obs_sync.with_lock m (fun () ->
      ring := [||];
      write_idx := 0;
      stored := 0;
      dropped_count := 0;
      Hashtbl.reset aggs);
  (* Only the calling domain's open spans can be dropped; other
     domains' stacks are unreachable by design (and a worker mid-span
     during clear is a caller bug). *)
  Obs_sync.get_local stack := []

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Obs_sync.with_lock m (fun () -> cap := n);
  clear ()

let record ev =
  Obs_sync.with_lock m (fun () ->
      if Array.length !ring <> !cap then ring := Array.make !cap None;
      let r = !ring in
      if r.(!write_idx) <> None then Stdlib.incr dropped_count
      else Stdlib.incr stored;
      r.(!write_idx) <- Some ev;
      write_idx := (!write_idx + 1) mod !cap;
      let c =
        match Hashtbl.find_opt aggs ev.name with
        | Some c -> c
        | None ->
            let c = { n = 0; d = { total = 0.; longest = 0. } } in
            Hashtbl.replace aggs ev.name c;
            c
      in
      c.n <- c.n + 1;
      c.d.total <- c.d.total +. ev.dur_us;
      if ev.dur_us > c.d.longest then c.d.longest <- ev.dur_us)

let begin_span name =
  let st = Obs_sync.get_local stack in
  st := (name, now_us ()) :: !st

let end_span () =
  let st = Obs_sync.get_local stack in
  match !st with
  | [] -> invalid_arg "Trace.end_span: no open span"
  | (name, start) :: rest ->
      st := rest;
      record
        {
          name;
          ts_us = start;
          dur_us = now_us () -. start;
          depth = List.length rest;
        }

let with_span name f =
  begin_span name;
  match f () with
  | v ->
      end_span ();
      v
  | exception e ->
      end_span ();
      raise e

let depth () = List.length !(Obs_sync.get_local stack)

let events () =
  (* Completion order: from the oldest live slot to the newest.  When
     the ring has wrapped, the oldest slot is the one about to be
     overwritten, i.e. [write_idx]. *)
  Obs_sync.with_lock m (fun () ->
      let r = !ring in
      let start = if !stored < !cap then 0 else !write_idx in
      let out = ref [] in
      for i = 0 to !stored - 1 do
        match r.((start + i) mod !cap) with
        | Some ev -> out := ev :: !out
        | None -> ()
      done;
      List.rev !out)

let dropped () = Obs_sync.with_lock m (fun () -> !dropped_count)

let aggregates () =
  Obs_sync.with_lock m (fun () ->
      Hashtbl.fold
        (fun name c acc ->
          (name, { calls = c.n; total_us = c.d.total; max_us = c.d.longest })
          :: acc)
        aggs [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let summary_table () =
  let tbl =
    Table.create ~header:[ "span"; "calls"; "total ms"; "mean ms"; "max ms" ]
  in
  List.iter
    (fun (name, a) ->
      let ms us = us /. 1e3 in
      Table.add_row tbl
        [
          name; string_of_int a.calls; Table.float_cell (ms a.total_us);
          Table.float_cell (ms (a.total_us /. float_of_int a.calls));
          Table.float_cell (ms a.max_us);
        ])
    (aggregates ());
  tbl

(* Chrome trace-event JSON: one "X" (complete) event per span. *)
let to_chrome_json () =
  let event ev =
    Sjson.Obj
      [
        ("name", Sjson.Str ev.name); ("cat", Sjson.Str "netcalc");
        ("ph", Sjson.Str "X"); ("ts", Sjson.Num ev.ts_us);
        ("dur", Sjson.Num ev.dur_us); ("pid", Sjson.num_of_int 1);
        ("tid", Sjson.num_of_int 1);
        ("args", Sjson.Obj [ ("depth", Sjson.num_of_int ev.depth) ]);
      ]
  in
  Sjson.render
    (Sjson.Obj
       [
         ("traceEvents", Sjson.List (List.map event (events ())));
         ("displayTimeUnit", Sjson.Str "ms");
       ])

let save_chrome_json path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  close_out oc
