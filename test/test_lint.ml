(* Self-tests for netcalc-lint (tools/lint): run the built analyzer as
   a subprocess over its fixture corpus and over the real tree.

   The fixture assertions pin exact (file, rule, line) triples, so any
   drift in a rule's detection logic — or in the fixtures — fails
   loudly.  The real-tree check is the same invocation CI's lint gate
   runs: the shipped lib/, bin/ and bench/ must be clean modulo the
   checked-in (empty) baseline. *)

let exe = "../tools/lint/netcalc_lint.exe"
let lint_dir = "../tools/lint"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run cmd = Sys.command (cmd ^ " > /dev/null 2>&1")

(* Every finding the fixture corpus must produce, as exact
   (file, line, rule) triples; see tools/lint/fixtures/. *)
let expected_fixture_findings =
  [ ("fixtures/bench/bad_determinism.ml", 10, "unsorted-fold");
    ("fixtures/bench/bad_determinism.ml", 11, "unsorted-fold");
    ("fixtures/lib/core/bad_backend.ml", 10, "curve-repr");
    ("fixtures/lib/bad_float.ml", 7, "float-eq");
    ("fixtures/lib/bad_float.ml", 8, "float-eq");
    ("fixtures/lib/bad_float.ml", 9, "float-eq");
    ("fixtures/lib/bad_forbidden.ml", 4, "forbidden-prim");
    ("fixtures/lib/bad_forbidden.ml", 5, "forbidden-prim");
    ("fixtures/lib/bad_forbidden.ml", 6, "forbidden-prim");
    ("fixtures/lib/bad_forbidden.ml", 9, "forbidden-prim");
    ("fixtures/lib/bad_forbidden.ml", 10, "forbidden-prim");
    ("fixtures/lib/bad_hashcons.ml", 7, "pwl-poly-eq");
    ("fixtures/lib/bad_hashcons.ml", 8, "pwl-poly-eq");
    ("fixtures/lib/bad_hashcons.ml", 9, "pwl-poly-eq");
    ("fixtures/lib/bad_hashcons.ml", 10, "pwl-poly-eq");
    ("fixtures/lib/bad_race.ml", 8, "race-global");
    ("fixtures/lib/bad_race.ml", 9, "race-global");
    ("fixtures/lib/bad_race.ml", 14, "bad-waiver");
    ("fixtures/lib/bad_race.ml", 16, "race-global")
  ]

let fixture_report () =
  let report = Filename.concat (Sys.getcwd ()) "lint_fixture_report.json" in
  let code =
    run
      (Printf.sprintf "cd %s && ./netcalc_lint.exe --json %s fixtures"
         (Filename.quote lint_dir) (Filename.quote report))
  in
  (code, read_file report)

let test_fixtures_flag_exactly () =
  let code, report = fixture_report () in
  Alcotest.(check int) "seeded violations make the exit code nonzero" 1 code;
  let lines = String.split_on_char '\n' report in
  let finding_lines =
    List.filter (fun l -> contains l "\"file\": ") lines
  in
  Alcotest.(check int) "total findings"
    (List.length expected_fixture_findings)
    (List.length finding_lines);
  List.iter
    (fun (file, line, rule) ->
      let loc = Printf.sprintf "{\"file\": \"%s\", \"line\": %d," file line in
      let rul = Printf.sprintf "\"rule\": \"%s\"" rule in
      let hit = List.exists (fun l -> contains l loc && contains l rul) lines in
      if not hit then
        Alcotest.failf "missing finding %s:%d [%s]" file line rule)
    expected_fixture_findings

let test_clean_fixture_is_clean () =
  let _, report = fixture_report () in
  Alcotest.(check bool) "clean.ml produces no finding" false
    (contains report "clean.ml")

(* The ratchet: baselining the corpus turns exit 1 into exit 0, and a
   stale baseline does not hide anything new. *)
let test_baseline_ratchet () =
  let base = Filename.concat (Sys.getcwd ()) "lint_fixture_baseline.json" in
  let update =
    run
      (Printf.sprintf
         "cd %s && ./netcalc_lint.exe --baseline %s --update-baseline fixtures"
         (Filename.quote lint_dir) (Filename.quote base))
  in
  Alcotest.(check int) "update-baseline exits 0" 0 update;
  let again =
    run
      (Printf.sprintf "cd %s && ./netcalc_lint.exe --baseline %s fixtures"
         (Filename.quote lint_dir) (Filename.quote base))
  in
  Alcotest.(check int) "baselined corpus exits 0" 0 again

(* ------------------------------------------------------------------ *)
(* Typed (.cmt) pipeline: tools/lint/fixtures_typed is built as a
   real library, so `dune build @check` leaves its typedtrees in the
   build tree and the analyzer is pointed straight at them.  No
   source paths are passed, so everything below comes from the typed
   passes alone. *)

let typed_fixture_root = "../tools/lint/fixtures_typed"

let expected_typed_findings =
  [ ("tools/lint/fixtures_typed/bad_cache_key.ml", 11, "cache-key");
    ("tools/lint/fixtures_typed/bad_exn_escape.ml", 6, "exn-escape");
    ("tools/lint/fixtures_typed/bad_exn_escape.ml", 8, "exn-escape");
    ("tools/lint/fixtures_typed/bad_fold_flow.ml", 7, "unsorted-fold-flow");
    ("tools/lint/fixtures_typed/bad_par_escape.ml", 18, "par-escape");
    ("tools/lint/fixtures_typed/bad_unused_export.mli", 3, "unused-export");
    ("tools/lint/fixtures_typed/fixture_state.ml", 12, "par-escape")
  ]

let typed_cmd = Printf.sprintf "%s --typed --cmt-root %s" exe typed_fixture_root

let typed_report () =
  let report = Filename.concat (Sys.getcwd ()) "lint_typed_report.json" in
  let code = run (Printf.sprintf "%s --json %s" typed_cmd (Filename.quote report)) in
  (code, read_file report)

let test_typed_fixtures_flag_exactly () =
  let code, report = typed_report () in
  Alcotest.(check int) "seeded violations make the exit code nonzero" 1 code;
  Alcotest.(check bool) "report is schema v2" true
    (contains report "netcalc-lint/2");
  Alcotest.(check bool) "report records the typed pass ran" true
    (contains report "\"typed\": true");
  let lines = String.split_on_char '\n' report in
  let finding_lines = List.filter (fun l -> contains l "\"file\": ") lines in
  Alcotest.(check int) "total findings"
    (List.length expected_typed_findings)
    (List.length finding_lines);
  List.iter
    (fun (file, line, rule) ->
      let loc = Printf.sprintf "{\"file\": \"%s\", \"line\": %d," file line in
      let rul = Printf.sprintf "\"rule\": \"%s\"" rule in
      let hit = List.exists (fun l -> contains l loc && contains l rul) lines in
      if not hit then
        Alcotest.failf "missing typed finding %s:%d [%s]" file line rule)
    expected_typed_findings;
  (* every finding above comes from a typed rule and is tagged so *)
  Alcotest.(check bool) "no syntactic-pass findings" false
    (contains report "\"pass\": \"syntactic\"");
  Alcotest.(check bool) "typed pass tags present" true
    (contains report "\"pass\": \"typed\"")

let test_typed_clean_variants_clean () =
  let _, report = typed_report () in
  Alcotest.(check bool) "clean_* fixtures produce no finding" false
    (contains report "clean_")

(* The merged finding stream must not depend on the worker count. *)
let test_typed_jobs_deterministic () =
  let capture tag jobs =
    let out = Filename.concat (Sys.getcwd ()) ("lint_typed_out_" ^ tag) in
    let _ =
      Sys.command
        (Printf.sprintf "%s -j %d > %s 2>&1" typed_cmd jobs
           (Filename.quote out))
    in
    (* the trailing summary line carries wall time and the jobs count *)
    read_file out |> String.split_on_char '\n'
    |> List.filter (fun l -> not (contains l "netcalc-lint:"))
    |> String.concat "\n"
  in
  Alcotest.(check string) "identical findings at -j 1 and -j 4"
    (capture "j1" 1) (capture "j4" 4)

(* Ratchet round-trip on the typed findings: bootstrap silences the
   corpus; a stale entry fails a normal run, is pruned by
   --update-baseline, and a baseline missing a current finding makes
   --update-baseline refuse (the baseline only ever shrinks). *)
let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let baseline_json triples =
  [ "{"; "  \"schema\": \"netcalc-lint-baseline/1\","; "  \"findings\": [" ]
  @ (List.mapi
       (fun i (file, line, rule) ->
         Printf.sprintf "    {\"file\": \"%s\", \"rule\": \"%s\", \"line\": %d}%s"
           file rule line
           (if i = List.length triples - 1 then "" else ","))
       triples)
  @ [ "  ]"; "}" ]

let test_typed_baseline_ratchet () =
  let base = Filename.concat (Sys.getcwd ()) "lint_typed_baseline.json" in
  (try Sys.remove base with Sys_error _ -> ());
  let with_base extra =
    Printf.sprintf "%s --baseline %s%s" typed_cmd (Filename.quote base) extra
  in
  Alcotest.(check int) "bootstrap --update-baseline exits 0" 0
    (run (with_base " --update-baseline"));
  Alcotest.(check int) "baselined corpus exits 0" 0 (run (with_base ""));
  (* stale entry: fails a normal run, pruned by --update-baseline *)
  write_lines base
    (baseline_json
       (expected_typed_findings
       @ [ ("tools/lint/fixtures_typed/gone.ml", 1, "par-escape") ]));
  Alcotest.(check int) "stale baseline entry fails a normal run" 1
    (run (with_base ""));
  Alcotest.(check int) "--update-baseline prunes the stale entry" 0
    (run (with_base " --update-baseline"));
  Alcotest.(check bool) "stale entry is gone from the baseline" false
    (contains (read_file base) "gone.ml");
  Alcotest.(check int) "pruned baseline passes a normal run" 0
    (run (with_base ""));
  (* a baseline missing a current finding: --update-baseline refuses
     to absorb the fresh finding and leaves the file alone *)
  (match expected_typed_findings with
  | _ :: rest -> write_lines base (baseline_json rest)
  | [] -> assert false);
  let before = read_file base in
  Alcotest.(check int) "--update-baseline refuses fresh findings" 1
    (run (with_base " --update-baseline"));
  Alcotest.(check string) "refusal leaves the baseline untouched" before
    (read_file base)

let test_real_tree_clean () =
  let code =
    run
      (Printf.sprintf
         "cd .. && tools/lint/netcalc_lint.exe --baseline \
          tools/lint/baseline.json lib bin bench")
  in
  Alcotest.(check int) "lib/ bin/ bench/ clean modulo baseline" 0 code

let test name f = Alcotest.test_case name `Quick f

let suite =
  ( "lint",
    [
      test "fixtures: exact rule ids and lines" test_fixtures_flag_exactly;
      test "fixtures: clean file stays clean" test_clean_fixture_is_clean;
      test "baseline ratchet silences, then holds" test_baseline_ratchet;
      test "typed fixtures: exact rule ids and lines"
        test_typed_fixtures_flag_exactly;
      test "typed fixtures: clean variants stay clean"
        test_typed_clean_variants_clean;
      test "typed findings independent of -j" test_typed_jobs_deterministic;
      test "typed baseline ratchet: prune stale, refuse fresh"
        test_typed_baseline_ratchet;
      test "real tree clean modulo baseline" test_real_tree_clean;
    ] )
