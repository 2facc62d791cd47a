(* Shared infrastructure of netcalc-lint: the finding type, path
   roles, the waiver vocabulary, the JSON codec, the baseline ratchet
   and the report writer.  The two analysis backends
   ([Lint_syntactic] over ppxlib parsetrees, [Lint_typed] over
   compiler-libs [.cmt] typedtrees) both produce plain
   [finding list]s, so the driver can merge, deduplicate and ratchet
   them uniformly — and run the per-file phases on the [Par] pool
   without any shared mutable state.

   Exit codes (owned by the driver): 0 clean (all findings
   baselined), 1 at least one fresh finding or a stale baseline
   entry, 2 usage or I/O error. *)

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  hint : string;
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Stdlib.compare (a.line, a.col) (b.line, b.col) with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
  | c -> c

(* Deterministic merge: sort by (file, line, col, rule), then collapse
   duplicates of the same (file, rule, line) reported at different
   columns — one diagnostic per flagged line and rule.  Both backends
   and every [-j] worker feed through this, so the output order is
   independent of the jobs count. *)
let dedup findings =
  let all = List.sort_uniq compare_finding findings in
  List.fold_left
    (fun acc f ->
      match acc with
      | prev :: _
        when prev.file = f.file && prev.rule = f.rule && prev.line = f.line ->
          acc
      | _ -> f :: acc)
    [] all
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Path classification                                                 *)
(* ------------------------------------------------------------------ *)

type role = Lib | Bin | Bench | Tools | Other

let path_segs path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun s -> s <> "" && s <> ".")

let role_of_path path =
  let rec find = function
    | [] -> Other
    | "lib" :: _ -> Lib
    | "bin" :: _ -> Bin
    | "bench" :: _ -> Bench
    | "tools" :: _ -> Tools
    | _ :: rest -> find rest
  in
  find (path_segs path)

(* Directories whose code constitutes the analysis engines: they build
   curves only with exact constructions, never from samplers
   (DESIGN.md §7).  lib/pwl (the curve libraries themselves), lib/curves
   (curve constructors, including the sampler-based FIFO-theta
   clipping) and lib/sim (the fluid simulator computes explicit
   trajectories, not bounds) may sample. *)
let engine_path path =
  let rec find = function
    | "lib" :: d :: _ -> List.mem d [ "core"; "sched"; "serve" ]
    | _ :: rest -> find rest
    | [] -> false
  in
  find (path_segs path)

(* The one module allowed to spell out raw float comparison. *)
let is_float_ops_file path = Filename.basename path = "float_ops.ml"

(* Fixture corpora live under the analyzer's own tree; they are
   deliberately dirty and must never leak into a real-tree scan.  A
   path is only treated as a fixture when the fixture segment appears
   *below* the scan root, so the fixture tests can still point the
   scanner straight at a corpus. *)
let fixture_seg s =
  s = "fixtures" || s = "fixtures_typed"

let under_fixtures rel = List.exists fixture_seg (path_segs rel)

(* ------------------------------------------------------------------ *)
(* Waivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Two attribute spellings:

     [@@lint.domain_safe "reason"]            (legacy, PR 5)
     [@@lint.waive "rule[, rule ...]: reason"]

   [lint.domain_safe] waives the two shared-mutable-state rules
   (race-global syntactically, par-escape interprocedurally) — the
   reasons written for PR 5 argue exactly that invariant.
   [lint.waive] names its rules explicitly, so one binding can e.g.
   be declared cache-key-transparent without also waiving the race
   rules.  Only binding-scoped rules are waivable. *)

let legacy_waiver_name = "lint.domain_safe"
let waive_name = "lint.waive"
let barrier_name = "lint.exn_barrier"
let legacy_rules = [ "race-global"; "par-escape" ]

let waivable_rules =
  [ "race-global"; "par-escape"; "exn-escape"; "cache-key";
    "unsorted-fold-flow" ]

(* Parse a [lint.waive] payload "rule[, rule ...]: reason" into
   ([rules], reason).  [None] means the payload is malformed (the
   caller reports bad-waiver). *)
let parse_waive_payload s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
      let rules =
        String.sub s 0 i
        |> String.split_on_char ','
        |> List.concat_map (String.split_on_char ' ')
        |> List.map String.trim
        |> List.filter (fun r -> r <> "")
      in
      let reason = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if
        rules <> [] && reason <> ""
        && List.for_all (fun r -> List.mem r waivable_rules) rules
      then Some (rules, reason)
      else None

(* ------------------------------------------------------------------ *)
(* File system                                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if
             entry = "_build" || fixture_seg entry
             || (entry <> "" && entry.[0] = '.')
           then acc
           else collect_ml acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* All [.cmt] and [.cmti] files below [root] (dune keeps them in
   per-library [.<lib>.objs/byte/] and per-executable
   [.<exe>.eobjs/byte/] directories, which start with a dot — so unlike
   [collect_ml] this walk must descend into dot-directories). *)
let collect_cmt root =
  let acc = ref [] in
  let rec go rel path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry ->
             if entry = "_build" || fixture_seg entry then ()
             else
               go
                 (if rel = "" then entry else rel ^ "/" ^ entry)
                 (Filename.concat path entry))
    else if
      Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
    then acc := path :: !acc
  in
  go "" root;
  List.sort String.compare !acc

(* ------------------------------------------------------------------ *)
(* Minimal JSON (the container ships no JSON library)                  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then (
        pos := !pos + l;
        v)
      else fail ("expected " ^ lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents b
        else if c = '\\' then (
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > n then fail "bad unicode escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> fail "bad unicode escape"
              in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ())
        else (
          Buffer.add_char b c;
          go ())
      in
      go ()
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') ->
          let start = !pos in
          let num_char = function
            | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
            | _ -> false
          in
          while
            match peek () with Some c when num_char c -> true | _ -> false
          do
            advance ()
          done;
          let lit = String.sub s start (!pos - start) in
          (try Num (float_of_string lit) with _ -> fail "bad number")
      | _ -> fail "unexpected character"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let quote s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

(* A baseline entry identifies a finding by (file, rule, line): stable
   under unrelated edits elsewhere, invalidated (on purpose) when the
   flagged code moves — the gate then forces a re-look.  The ratchet
   only shrinks: a normal run fails on stale entries (findings that no
   longer occur), and [--update-baseline] over an existing baseline
   writes the intersection of old and current — it refuses to absorb
   fresh findings.  Bootstrapping (no baseline file yet) writes all
   current findings once. *)

let load_baseline path =
  if not (Sys.file_exists path) then None
  else
    let j =
      try Json.parse (read_file path)
      with Json.Parse_error msg ->
        Printf.eprintf "netcalc-lint: cannot parse baseline %s: %s\n" path msg;
        exit 2
    in
    match Json.member "findings" j with
    | Some (Json.Arr entries) ->
        Some
          (List.filter_map
             (fun e ->
               match
                 ( Json.member "file" e,
                   Json.member "rule" e,
                   Json.member "line" e )
               with
               | Some (Json.Str f), Some (Json.Str r), Some (Json.Num l) ->
                   Some (f, r, int_of_float l)
               | _ -> None)
             entries)
    | _ ->
        Printf.eprintf "netcalc-lint: baseline %s has no \"findings\" array\n"
          path;
        exit 2

let write_baseline path entries =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"netcalc-lint-baseline/1\",\n";
  output_string oc "  \"findings\": [";
  List.iteri
    (fun i (file, rule, line) ->
      Printf.fprintf oc "%s\n    {\"file\": %s, \"rule\": %s, \"line\": %d}"
        (if i = 0 then "" else ",")
        (Json.quote file) (Json.quote rule) line)
    entries;
  output_string oc (if entries = [] then "]\n}\n" else "\n  ]\n}\n");
  close_out oc

(* ------------------------------------------------------------------ *)
(* Report (schema netcalc-lint/2)                                      *)
(* ------------------------------------------------------------------ *)

(* v2 adds: the [lint] self-runtime budget object ([lint.files] inputs
   analyzed, [lint.ms] wall time, [lint.jobs]), the [typed] flag,
   [units_scanned] (cmt units, on top of v1's source
   [files_scanned]), the [stale] baseline-entry count, and a [pass]
   tag ("syntactic" | "typed") on every finding. *)

let typed_rules =
  [ "par-escape"; "exn-escape"; "cache-key"; "unsorted-fold-flow";
    "unused-export"; "cmt-error" ]

let pass_of_rule rule = if List.mem rule typed_rules then "typed" else "syntactic"

let write_report path ~files_scanned ~units_scanned ~elapsed_ms ~jobs ~typed
    ~stale classified =
  let total = List.length classified in
  let baselined = List.length (List.filter (fun (_, b) -> b) classified) in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"netcalc-lint/2\",\n";
  Printf.fprintf oc "  \"files_scanned\": %d,\n" files_scanned;
  Printf.fprintf oc "  \"units_scanned\": %d,\n" units_scanned;
  Printf.fprintf oc "  \"typed\": %b,\n" typed;
  Printf.fprintf oc
    "  \"lint\": {\"files\": %d, \"ms\": %.3f, \"jobs\": %d},\n"
    (files_scanned + units_scanned)
    elapsed_ms jobs;
  Printf.fprintf oc "  \"total\": %d,\n" total;
  Printf.fprintf oc "  \"baselined\": %d,\n" baselined;
  Printf.fprintf oc "  \"fresh\": %d,\n" (total - baselined);
  Printf.fprintf oc "  \"stale\": %d,\n" stale;
  output_string oc "  \"findings\": [";
  List.iteri
    (fun i (f, b) ->
      Printf.fprintf oc
        "%s\n\
        \    {\"file\": %s, \"line\": %d, \"col\": %d, \"rule\": %s, \
         \"pass\": %s, \"baselined\": %b, \"msg\": %s, \"hint\": %s}"
        (if i = 0 then "" else ",")
        (Json.quote f.file) f.line f.col (Json.quote f.rule)
        (Json.quote (pass_of_rule f.rule))
        b (Json.quote f.msg) (Json.quote f.hint))
    classified;
  output_string oc (if classified = [] then "]\n}\n" else "\n  ]\n}\n");
  close_out oc
