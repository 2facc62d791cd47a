(* The syntactic backend of netcalc-lint: per-file rules over the
   ppxlib parsetree (DESIGN.md §12).  Six rule families:

     race-global     top-level mutable state (ref cells, hash tables,
                     buffers, arrays, records with mutable fields) in
                     library code must have every access wrapped in
                     [Obs_sync.with_lock] within the same function, or
                     carry a waiver
     pwl-poly-eq     no polymorphic [=] / [<>] / [compare] /
                     [Hashtbl.hash] on expressions syntactically known
                     to be [Pwl.t] — use [Pwl.equal] / [Pwl.compare] /
                     [Pwl.uid]
     float-eq        no raw [=] / [<>] on float literals or
                     float-annotated expressions outside
                     [lib/util/float_ops.ml]
     forbidden-prim  [Sys.time], [Random.self_init], [Obj.magic]
                     anywhere; [print_string] / [Printf.printf] in
                     [lib/] (output belongs to obs or return values)
     unsorted-fold   [Hashtbl.fold] / [Hashtbl.iter] whose callback
                     builds a list or prints, with no enclosing sort:
                     iteration order is unspecified, so the output is
                     nondeterministic
     curve-repr      engine code (lib/core, lib/sched, lib/serve)
                     rebuilding curves from samplers
                     ([Pwl.of_sampler]): engines build curves only
                     with exact constructions

   plus two infrastructure rules: [parse-error] (a file does not
   parse) and [bad-waiver] (a waiver attribute whose payload does not
   parse).  The interprocedural rules (par-escape, exn-escape,
   cache-key, unsorted-fold-flow) live in [Lint_typed].

   The check for race-global is deliberately syntactic and
   same-function: an access counts as guarded only when it occurs
   inside the thunk passed to a [with_lock] call visible in the same
   expression tree.  Helpers that are "always called with the lock
   held" need the waiver (with the invariant as the reason) — exactly
   the kind of unstated protocol the rule exists to surface. *)

open Ppxlib
open Lint_core

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec last_of_lid = function
  | Lident s -> s
  | Ldot (_, s) -> s
  | Lapply (_, l) -> last_of_lid l

let head_ident e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

(* Callee of an expression that may itself be a (partial) application:
   used to recognize [x |> List.sort cmp] pipelines. *)
let callee_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_apply (h, _) -> head_ident h
  | _ -> None

let rec unconstrain e =
  match e.pexp_desc with Pexp_constraint (e, _) -> unconstrain e | _ -> e

let binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let unlabeled args =
  List.filter_map (function Nolabel, e -> Some e | _ -> None) args

let split_last l =
  match List.rev l with
  | [] -> None
  | x :: rev_init -> Some (List.rev rev_init, x)

(* A generic "does any sub-expression satisfy [pred]" scan. *)
let expr_contains pred e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression x =
        if !found then ()
        else if pred x then found := true
        else super#expression x
    end
  in
  it#expression e;
  !found

(* ------------------------------------------------------------------ *)
(* Rule vocabulary                                                     *)
(* ------------------------------------------------------------------ *)

let poly_eq_op = function
  | Lident (("=" | "<>" | "compare") as s)
  | Ldot (Lident "Stdlib", (("=" | "<>" | "compare") as s)) ->
      Some s
  | _ -> None

let float_eq_op = function
  | Lident (("=" | "<>") as s) | Ldot (Lident "Stdlib", (("=" | "<>") as s))
    ->
      Some s
  | _ -> None

(* Module names that denote hash-table-like containers: the stdlib ones
   plus local [Hashtbl.Make] instances, which this codebase names
   [*_tbl] / [*Tbl] by convention. *)
let tbl_module m =
  m = "Hashtbl"
  ||
  let lm = String.lowercase_ascii m in
  let n = String.length lm in
  n >= 3 && String.sub lm (n - 3) 3 = "tbl"

let mutable_ctor = function
  | Lident "ref" -> Some "ref cell"
  | Ldot (Lident m, "create") when tbl_module m -> Some "hash table"
  | Ldot (Lident "Buffer", "create") -> Some "buffer"
  | Ldot (Lident "Queue", "create") -> Some "queue"
  | Ldot (Lident "Stack", "create") -> Some "stack"
  | Ldot (Lident "Bytes", ("create" | "make")) -> Some "byte buffer"
  | Ldot (Lident "Array", ("make" | "init" | "create_float")) -> Some "array"
  | Ldot (Lident "Weak", "create") -> Some "weak array"
  | _ -> None

let sort_callee = function
  | Ldot (Lident "List", ("sort" | "sort_uniq" | "stable_sort" | "fast_sort"))
  | Ldot (Lident "Array", ("sort" | "stable_sort" | "fast_sort")) ->
      true
  | _ -> false

let hashtbl_iteration = function
  | Ldot (Lident m, (("fold" | "iter") as f)) when tbl_module m ->
      Some (m ^ "." ^ f)
  | _ -> None

let forbidden_prim role = function
  | Ldot (Lident "Sys", "time") ->
      Some ("Sys.time", "use the monotonic Trace.now_us instead")
  | Ldot (Lident "Random", "self_init") ->
      Some
        ( "Random.self_init",
          "nondeterministic seeding; use Random.init with an explicit seed" )
  | Ldot (Lident "Obj", "magic") -> Some ("Obj.magic", "no unsafe casts")
  | Lident "print_string" when role = Lib ->
      Some
        ( "print_string",
          "libraries must not print; return values or record via netcalc.obs"
        )
  | Ldot (Lident "Printf", "printf") when role = Lib ->
      Some
        ( "Printf.printf",
          "libraries must not print; return values or record via netcalc.obs"
        )
  | _ -> None

(* Expressions that user-visible output flows through: flagged when fed
   straight from an unsorted hash-table iteration. *)
let sink_ident = function
  | Lident
      ( "print_string" | "print_endline" | "print_newline" | "print_int"
      | "print_float" | "output_string" | "prerr_string" | "prerr_endline" )
    ->
      true
  | Ldot (Lident ("Printf" | "Format"), ("printf" | "eprintf" | "fprintf")) ->
      true
  | Ldot (Lident "Buffer", ("add_string" | "add_char")) -> true
  | Ldot
      ( Lident "Table",
        ("add_row" | "add_floats" | "print" | "output" | "to_string" | "to_csv")
      ) ->
      true
  | _ -> false

let builds_list e =
  expr_contains
    (fun x ->
      match x.pexp_desc with
      | Pexp_construct ({ txt = Lident "::"; _ }, _) -> true
      | _ -> false)
    e

let contains_sink e =
  expr_contains
    (fun x ->
      match x.pexp_desc with
      | Pexp_ident { txt; _ } -> sink_ident txt
      | _ -> false)
    e

(* Pwl.t constructors whose results are curves (scalar-returning
   accessors like [eval] or [final_slope] are deliberately absent). *)
let pwl_ctors =
  [ "make"; "constant"; "affine"; "of_sampler"; "add"; "sum"; "sub"; "scale";
    "min_pw"; "max_pw"; "nonneg"; "min_list"; "shift_left"; "shift_right";
    "compose"; "pseudo_inverse"; "running_max"; "lower_convex_hull" ]

let minplus_ctors = [ "conv"; "conv_list"; "conv_with_rate"; "deconv" ]

let is_pwl_type ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Ldot (Lident "Pwl", "t"); _ }, []) -> true
  | _ -> false

let is_float_type ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "float" | Ldot (Lident "Float", "t"); _ }, [])
    ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Waivers                                                             *)
(* ------------------------------------------------------------------ *)

let string_payload attr =
  match attr.attr_payload with
  | PStr
      [ { pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _
        }
      ] ->
      Some s
  | _ -> None

(* The rules a binding's attributes waive, with bad-waiver diagnostics
   for malformed payloads (reported through [report]). *)
let waived_rules ~report attrs =
  List.concat_map
    (fun a ->
      if a.attr_name.txt = legacy_waiver_name then (
        match string_payload a with
        | Some s when String.trim s <> "" -> legacy_rules
        | _ ->
            report ~loc:a.attr_loc ~rule:"bad-waiver"
              ~msg:
                "[@@lint.domain_safe] without a reason: the payload must be \
                 a nonempty string explaining why unguarded access is safe"
              ~hint:"write [@@lint.domain_safe \"reason\"]";
            [])
      else if a.attr_name.txt = waive_name then (
        match Option.bind (string_payload a) parse_waive_payload with
        | Some (rules, _reason) -> rules
        | None ->
            report ~loc:a.attr_loc ~rule:"bad-waiver"
              ~msg:
                "[@@lint.waive] payload must be \"rule[, rule ...]: reason\" \
                 with known rule names and a nonempty reason"
              ~hint:
                (Printf.sprintf "waivable rules: %s"
                   (String.concat ", " waivable_rules));
            [])
      else [])
    attrs

(* ------------------------------------------------------------------ *)
(* Per-file analysis                                                   *)
(* ------------------------------------------------------------------ *)

let analyze_structure ~report ~file ~role str =
  let float_ops = is_float_ops_file file in
  let engine = engine_path file in
  (* Names of mutable record labels declared in this file: a top-level
     [let st = { pos = 0; ... }] with such a label is module-scope
     mutable state. *)
  let mutable_labels : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Top-level mutable bindings: name -> kind. *)
  let tracked : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let waived : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Names syntactically known to hold Pwl.t values. *)
  let pwl_names : (string, unit) Hashtbl.t = Hashtbl.create 8 in

  let rec is_pwlish e =
    match e.pexp_desc with
    | Pexp_constraint (inner, ty) -> is_pwl_type ty || is_pwlish inner
    | Pexp_ident { txt = Lident n; _ } -> Hashtbl.mem pwl_names n
    | Pexp_ident { txt = Ldot (Lident "Pwl", "zero"); _ } -> true
    | Pexp_apply (h, _) -> (
        match head_ident h with
        | Some (Ldot (Lident "Pwl", f)) -> List.mem f pwl_ctors
        | Some (Ldot (Lident "Minplus", f)) -> List.mem f minplus_ctors
        | _ -> false)
    | _ -> false
  in
  let rec is_floatish e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_constraint (inner, ty) -> is_float_type ty || is_floatish inner
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident ("~-." | "~+."); _ }; _ },
         [ (Nolabel, a) ]) ->
        is_floatish a
    | _ -> false
  in

  (* -- pass 1: module-scope declarations ---------------------------- *)
  let collect_type_decl td =
    match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun ld ->
            if ld.pld_mutable = Mutable then
              Hashtbl.replace mutable_labels ld.pld_name.txt ())
          labels
    | _ -> ()
  in
  let mutable_rhs e =
    let e = unconstrain e in
    match e.pexp_desc with
    | Pexp_apply (h, _) -> (
        match head_ident h with Some p -> mutable_ctor p | None -> None)
    | Pexp_record (fields, _)
      when List.exists
             (fun (lid, _) -> Hashtbl.mem mutable_labels (last_of_lid lid.txt))
             fields ->
        Some "record with mutable fields"
    | Pexp_array _ -> Some "array"
    | _ -> None
  in
  let collect_vb vb =
    (match (waived_rules ~report vb.pvb_attributes, binding_name vb.pvb_pat)
     with
    | rules, Some n when List.mem "race-global" rules ->
        Hashtbl.replace waived n ()
    | _ -> ());
    match binding_name vb.pvb_pat with
    | Some n -> (
        match mutable_rhs vb.pvb_expr with
        | Some kind -> Hashtbl.replace tracked n kind
        | None -> ())
    | None -> ()
  in
  let rec collect_structure items = List.iter collect_item items
  and collect_item it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter collect_vb vbs
    | Pstr_type (_, decls) -> List.iter collect_type_decl decls
    | Pstr_module mb -> collect_module mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> collect_module mb.pmb_expr) mbs
    | Pstr_include incl -> collect_module incl.pincl_mod
    | _ -> ()
  and collect_module me =
    match me.pmod_desc with
    | Pmod_structure s -> collect_structure s
    | Pmod_constraint (m, _) -> collect_module m
    | Pmod_functor (_, m) -> collect_module m
    | _ -> ()
  in
  (* Types first: a record binding earlier in the file than its type is
     impossible, but keeping the passes separate costs nothing. *)
  collect_structure str;

  (* -- pass 2: names syntactically known to be Pwl.t ---------------- *)
  let name_collector =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        (match binding_name vb.pvb_pat with
        | Some n ->
            let annotated =
              match vb.pvb_pat.ppat_desc with
              | Ppat_constraint (_, ty) -> is_pwl_type ty
              | _ -> false
            in
            if annotated || is_pwlish vb.pvb_expr then
              Hashtbl.replace pwl_names n ()
        | None -> ());
        super#value_binding vb

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, ty)
          when is_pwl_type ty ->
            Hashtbl.replace pwl_names txt ()
        | _ -> ());
        super#pattern p
    end
  in
  name_collector#structure str;

  (* -- pass 3: flagging --------------------------------------------- *)
  let visitor =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable lock_depth = 0
      val mutable sort_depth = 0

      method private check_ident e txt =
        (match txt with
        | Lident n
          when role = Lib && lock_depth = 0 && Hashtbl.mem tracked n
               && not (Hashtbl.mem waived n) ->
            report ~loc:e.pexp_loc ~rule:"race-global"
              ~msg:
                (Printf.sprintf
                   "access to top-level mutable %s [%s] outside \
                    Obs_sync.with_lock"
                   (Hashtbl.find tracked n) n)
              ~hint:
                "wrap the access in Obs_sync.with_lock, or waive the \
                 binding with [@@lint.domain_safe \"reason\"]"
        | _ -> ());
        (match txt with
        | Ldot (Lident "Pwl", "of_sampler") when engine ->
            report ~loc:e.pexp_loc ~rule:"curve-repr"
              ~msg:
                "Pwl.of_sampler in engine code rebuilds a curve from \
                 samples; engines build curves only with exact \
                 constructions"
              ~hint:
                "build the curve with exact Pwl/Minplus operations, or \
                 move the sampler-based construction into lib/pwl or \
                 lib/curves"
        | _ -> ());
        match forbidden_prim role txt with
        | Some (sym, hint) ->
            report ~loc:e.pexp_loc ~rule:"forbidden-prim"
              ~msg:(Printf.sprintf "forbidden primitive %s" sym)
              ~hint
        | None -> ()

      method private check_apply e h args =
        match head_ident h with
        | None -> ()
        | Some p ->
            (match (poly_eq_op p, unlabeled args) with
            | Some op, [ a; b ] when is_pwlish a || is_pwlish b ->
                report ~loc:e.pexp_loc ~rule:"pwl-poly-eq"
                  ~msg:
                    (Printf.sprintf
                       "polymorphic (%s) on a Pwl.t value (compares floats \
                        by value, so 0. and -0. match)"
                       op)
                  ~hint:"use Pwl.equal (tolerant) / Pwl.compare (bit-exact)"
            | _ -> ());
            (match (p, unlabeled args) with
            | Ldot (Lident "Hashtbl", "hash"), a :: _ when is_pwlish a ->
                report ~loc:e.pexp_loc ~rule:"pwl-poly-eq"
                  ~msg:"Hashtbl.hash on a Pwl.t value"
                  ~hint:"key on Pwl.uid (bit-exact content key) or order \
                         with Pwl.compare"
            | _ -> ());
            (match (float_eq_op p, unlabeled args) with
            | Some op, [ a; b ]
              when (not float_ops)
                   && (not (is_pwlish a || is_pwlish b))
                   && (is_floatish a || is_floatish b) ->
                report ~loc:e.pexp_loc ~rule:"float-eq"
                  ~msg:(Printf.sprintf "raw float (%s)" op)
                  ~hint:
                    "use Float_ops.(=~) (tolerant) or Float_ops.eq_exact \
                     (deliberate exact comparison)"
            | _ -> ());
            match hashtbl_iteration p with
            | Some name when sort_depth = 0 -> (
                match unlabeled args with
                | cb :: _ when contains_sink cb ->
                    report ~loc:e.pexp_loc ~rule:"unsorted-fold"
                      ~msg:
                        (Printf.sprintf
                           "%s prints in hash-table iteration order, which \
                            is unspecified"
                           name)
                      ~hint:"collect the bindings, sort, then emit"
                | cb :: _ when builds_list cb ->
                    report ~loc:e.pexp_loc ~rule:"unsorted-fold"
                      ~msg:
                        (Printf.sprintf
                           "%s builds a list in hash-table iteration order \
                            with no enclosing sort"
                           name)
                      ~hint:
                        "pipe the result through List.sort (or sort the \
                         keys first)"
                | _ -> ())
            | _ -> ()

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> self#check_ident e txt
        | _ -> ());
        match e.pexp_desc with
        | Pexp_apply (h, args) -> (
            self#check_apply e h args;
            let visit_all l = List.iter (fun (_, a) -> self#expression a) l in
            match head_ident h with
            | Some p when last_of_lid p = "with_lock" -> (
                (* The last argument is the critical section. *)
                match split_last args with
                | Some (init, (_, body)) ->
                    self#expression h;
                    visit_all init;
                    lock_depth <- lock_depth + 1;
                    self#expression body;
                    lock_depth <- lock_depth - 1
                | None -> super#expression e)
            | Some p when sort_callee p ->
                self#expression h;
                sort_depth <- sort_depth + 1;
                visit_all args;
                sort_depth <- sort_depth - 1
            | Some (Lident "|>") -> (
                match args with
                | [ (_, lhs); (_, rhs) ]
                  when (match callee_path rhs with
                       | Some c -> sort_callee c
                       | None -> false) ->
                    sort_depth <- sort_depth + 1;
                    self#expression lhs;
                    sort_depth <- sort_depth - 1;
                    self#expression rhs
                | _ -> super#expression e)
            | Some (Lident "@@") -> (
                match args with
                | [ (_, lhs); (_, rhs) ]
                  when (match callee_path lhs with
                       | Some c -> sort_callee c
                       | None -> false) ->
                    self#expression lhs;
                    sort_depth <- sort_depth + 1;
                    self#expression rhs;
                    sort_depth <- sort_depth - 1
                | _ -> super#expression e)
            | _ -> super#expression e)
        | _ -> super#expression e
    end
  in
  visitor#structure str

(* Parsing goes through the host compiler's lexer, which keeps global
   state (the string buffer, the comment accumulator) — it is not
   reentrant.  The [-j] per-file fan-out therefore serializes the
   parse step and runs only the visitor passes concurrently. *)
let parse_mutex = Obs_sync.create ()

let analyze_file path =
  let findings = ref [] in
  let report ~loc ~rule ~msg ~hint =
    let p = loc.Location.loc_start in
    findings :=
      { file = path;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        rule;
        msg;
        hint }
      :: !findings
  in
  let role = role_of_path path in
  let src = read_file path in
  let parsed =
    Obs_sync.with_lock parse_mutex (fun () ->
        let lexbuf = Lexing.from_string src in
        lexbuf.Lexing.lex_curr_p <-
          { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
        match Parse.implementation lexbuf with
        | str -> Ok str
        | exception exn -> Error exn)
  in
  (match parsed with
  | Ok str -> analyze_structure ~report ~file:path ~role str
  | Error exn ->
      let msg =
        match Location.Error.of_exn exn with
        | Some err -> Location.Error.message err
        | None -> Printexc.to_string exn
      in
      report
        ~loc:
          { Location.loc_start = Lexing.dummy_pos;
            loc_end = Lexing.dummy_pos;
            loc_ghost = true
          }
        ~rule:"parse-error"
        ~msg:(Printf.sprintf "file does not parse: %s" msg)
        ~hint:"fix the syntax error (the compiler will tell you more)");
  !findings
