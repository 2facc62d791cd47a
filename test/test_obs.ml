(* Tests for the observability subsystem (netcalc.obs): counter
   monotonicity and reset, zero-cost disabled mode, LIFO span nesting,
   the trace ring buffer, and the Chrome trace-event JSON exporter. *)

open Testutil

(* Each test starts from a clean, disabled state and leaves it that
   way: the rest of the suite must never run instrumented. *)
let fresh f () =
  Obs.enable ();
  Metrics.reset ();
  Trace.clear ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Metrics.reset ();
      Trace.clear ())
    f

let test_counter_monotone () =
  let c = Metrics.counter "test.ctr" in
  let v0 = Metrics.value c in
  Alcotest.(check int) "starts at zero" 0 v0;
  Prof.count c;
  Prof.count c;
  Alcotest.(check int) "incremented" 2 (Metrics.value c);
  Prof.count_n c 3;
  Alcotest.(check int) "bulk add" 5 (Metrics.value c);
  check_bool "same name, same counter" true
    (Metrics.counter "test.ctr" == c);
  (try
     Metrics.add c (-1);
     Alcotest.fail "negative add must raise"
   with Invalid_argument _ -> ());
  Metrics.reset ();
  Alcotest.(check int) "reset to zero" 0 (Metrics.value c);
  Prof.count c;
  Alcotest.(check int) "counter survives reset" 1 (Metrics.value c)

let test_dist () =
  let d = Metrics.dist "test.dist" in
  Prof.observe d 2.;
  Prof.observe d 6.;
  Prof.observe d 4.;
  let st = Metrics.dist_stats d in
  Alcotest.(check int) "count" 3 st.Metrics.count;
  approx "sum" 12. st.Metrics.sum;
  approx "mean" 4. st.Metrics.mean;
  approx "min" 2. st.Metrics.dmin;
  approx "max" 6. st.Metrics.dmax;
  Metrics.reset ();
  Alcotest.(check int) "reset empties" 0 (Metrics.dist_stats d).Metrics.count

let test_disabled_noop () =
  Obs.disable ();
  let c = Metrics.counter "test.disabled.ctr" in
  let d = Metrics.dist "test.disabled.dist" in
  let before = Metrics.value c in
  Prof.count c;
  Prof.count_n c 10;
  Prof.observe d 1.;
  let ran = ref false in
  let r = Prof.span "test.disabled.span" (fun () -> ran := true; 42) in
  Alcotest.(check int) "span still runs the body" 42 r;
  check_bool "body executed" true !ran;
  Alcotest.(check int) "no counter drift" before (Metrics.value c);
  Alcotest.(check int) "no dist drift" 0 (Metrics.dist_stats d).Metrics.count;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.events ()))

let test_span_lifo () =
  let r =
    Prof.span "outer" (fun () ->
        Prof.span "inner" (fun () -> Alcotest.(check int) "depth inside" 2 (Trace.depth ()); 7))
  in
  Alcotest.(check int) "result threads through" 7 r;
  Alcotest.(check int) "all spans closed" 0 (Trace.depth ());
  match Trace.events () with
  | [ inner; outer ] ->
      (* Completion order is LIFO: the inner span closes first. *)
      Alcotest.(check string) "inner closes first" "inner" inner.Trace.name;
      Alcotest.(check string) "outer closes last" "outer" outer.Trace.name;
      Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
      Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
      check_bool "inner starts after outer" true
        (inner.Trace.ts_us >= outer.Trace.ts_us);
      check_bool "inner contained in outer" true
        (inner.Trace.ts_us +. inner.Trace.dur_us
         <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1e-3)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_exception_safe () =
  (try
     Prof.span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 0 (Trace.depth ());
  Alcotest.(check int) "event still recorded" 1
    (List.length (Trace.events ()));
  try
    Trace.end_span ();
    Alcotest.fail "end_span with no open span must raise"
  with Invalid_argument _ -> ()

let test_ring_eviction () =
  Trace.set_capacity 4;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 65536) @@ fun () ->
  for i = 1 to 10 do
    Prof.span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length evs);
  Alcotest.(check int) "evicted count" 6 (Trace.dropped ());
  Alcotest.(check (list string)) "newest survive"
    [ "s7"; "s8"; "s9"; "s10" ]
    (List.map (fun e -> e.Trace.name) evs);
  (* Aggregates are exact even though the ring dropped events. *)
  Alcotest.(check int) "aggregates unaffected by eviction" 10
    (List.length (Trace.aggregates ()))

(* A deliberately small JSON parser: enough to check that the exporter
   emits structurally valid JSON in the Chrome trace-event dialect
   (object with a traceEvents array of complete "X" events). *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then (pos := !pos + String.length word; v)
      else raise (Bad word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                for _ = 1 to 4 do advance () done;
                Buffer.add_char b '?'
            | c -> raise (Bad (Printf.sprintf "escape %c" c)));
            advance ();
            go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
        || c = 'E'
      in
      while !pos < n && numchar s.[!pos] do advance () done;
      if !pos = start then raise (Bad "number");
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              let key = (skip_ws (); parse_string ()) in
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); members ((key, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
              | c -> raise (Bad (Printf.sprintf "in object: %c" c))
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); List [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); List (List.rev (v :: acc))
              | c -> raise (Bad (Printf.sprintf "in array: %c" c))
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
end

let test_chrome_json () =
  Prof.span "alpha" (fun () -> Prof.span "beta \"quoted\",\n" (fun () -> ()));
  let json = Trace.to_chrome_json () in
  let doc =
    try Json.parse json
    with Json.Bad msg -> Alcotest.failf "invalid JSON (%s): %s" msg json
  in
  match doc with
  | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.List evs) ->
          Alcotest.(check int) "two events" 2 (List.length evs);
          List.iter
            (fun ev ->
              match ev with
              | Json.Obj f ->
                  (match List.assoc_opt "name" f with
                  | Some (Json.Str _) -> ()
                  | _ -> Alcotest.fail "event missing string name");
                  (match List.assoc_opt "ph" f with
                  | Some (Json.Str "X") -> ()
                  | _ -> Alcotest.fail "event ph must be X");
                  (match (List.assoc_opt "ts" f, List.assoc_opt "dur" f) with
                  | Some (Json.Num ts), Some (Json.Num dur) ->
                      check_bool "nonnegative ts" true (ts >= 0.);
                      check_bool "nonnegative dur" true (dur >= 0.)
                  | _ -> Alcotest.fail "event needs numeric ts and dur")
              | _ -> Alcotest.fail "event is not an object")
            evs
      | _ -> Alcotest.fail "missing traceEvents array")
  | _ -> Alcotest.fail "top level is not an object"

let test_metrics_table () =
  let c = Metrics.counter "test.table.ctr" in
  Prof.count c;
  let d = Metrics.dist "test.table.dist" in
  Prof.observe d 3.5;
  let s = Table.to_string (Metrics.to_table ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "counter listed" true (contains s "test.table.ctr");
  check_bool "dist listed" true (contains s "test.table.dist");
  (* Zero-count metrics are hidden. *)
  Metrics.reset ();
  let hidden = Table.to_string (Metrics.to_table ()) in
  check_bool "zero rows hidden" false (contains hidden "test.table.ctr")

(* Recording must not make the GC's work depend on the recorded
   values.  A distribution that kept its argument's box only when it
   set a new extreme left that box to be promoted by the next minor
   collection, so the major words of a traced run drifted with its
   measured times.  Each value is a fresh box in both sequences. *)
let test_dist_promotion_value_independent () =
  let d = Metrics.dist "test.dist.promotion" in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let promoted value =
    Metrics.reset ();
    Gc.minor ();
    let before = major_words () in
    for i = 1 to 200 do
      Prof.observe d (float_of_int (value i));
      Gc.minor ()
    done;
    major_words () -. before
  in
  let rising = promoted Fun.id in
  let flat = promoted (fun _ -> 1) in
  Alcotest.(check (float 0.)) "rising vs flat major words" flat rising

let suite =
  ( "obs",
    [
      test "counters are monotone and reset" (fresh test_counter_monotone);
      test "distributions" (fresh test_dist);
      test "disabled mode is a no-op" (fresh test_disabled_noop);
      test "nested spans close in LIFO order" (fresh test_span_lifo);
      test "spans close on exceptions" (fresh test_span_exception_safe);
      test "ring buffer evicts oldest" (fresh test_ring_eviction);
      test "chrome trace JSON is valid" (fresh test_chrome_json);
      test "metrics table rendering" (fresh test_metrics_table);
      test "dist updates promote the same words for any values"
        (fresh test_dist_promotion_value_independent);
    ] )
