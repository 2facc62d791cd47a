(* The typed backend of netcalc-lint: interprocedural dataflow over
   compiler-libs [.cmt] typedtrees (DESIGN.md §16).

   Per compilation unit, [facts_of_cmt] extracts local facts — the
   module-level mutable bindings, and for every binding the global
   symbols it references, the unguarded writes to non-local mutable
   state, the exceptions it can raise (minus those handled locally),
   plus every [Par.map]/[Par.mapi]/[Par.map_reduce] call site (with
   the facts of its worker closures, scoped so that state captured
   from the enclosing function counts as non-local) and every
   memoization site ([Incremental.memoize], [Minplus.cached]) with the
   references of its key and compute arguments.  This phase is pure per file, so the driver fans it out
   on the [Par] pool.

   [analyze] then merges the facts into one symbol table and call
   graph and runs the five whole-program rule families:

     par-escape          a write (without [Obs_sync.with_lock]) to
                         module-level mutable state — or to state
                         captured from the enclosing function — on a
                         path reachable from a Par worker closure
     exn-escape          control-flow exceptions (Not_found, Exit,
                         End_of_file) that can cross a Par worker
                         boundary uncaught, and *any* exception that
                         can escape a function marked
                         [[@@lint.exn_barrier]] (the serve request
                         loop)
     cache-key           mutable state transitively readable from a
                         memoized compute closure but not from its
                         key expression: a silent wrong-reuse bug
     unsorted-fold-flow  a list built by an unsorted hash-table fold
                         that flows into the function's return value
                         (the syntactic unsorted-fold rule only sees
                         the iteration site itself)
     unused-export       a [val] in a library [.mli] ([.cmti]) that no
                         other compilation unit references, applied or
                         passed as a value

   Symbols are normalized to their last two dotted components
   ("Engine.compare_all", "Hashtbl.fold"); the netcalc libraries are
   all [(wrapped false)], so this matches how cross-module references
   appear in the typedtree.  The analysis is deliberately
   name-based and over-approximate on calls (passing a function as a
   value counts as calling it) and under-approximate on aliasing
   (writes through parameters are not tracked) — see
   tools/lint/README.md for the contract. *)

open Lint_core

type sym = string

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)
(* ------------------------------------------------------------------ *)

type write = {
  w_name : string;  (* what was written, for messages *)
  w_sym : sym option;  (* Some when the target is a module-level binding *)
  w_captured : bool;  (* target captured from the enclosing function *)
  w_file : string;
  w_line : int;
  w_col : int;
}

type call = { c_sym : sym; c_handled : string list; c_catch_all : bool }

type fn = {
  fn_sym : sym;
  fn_file : string;
  fn_line : int;
  fn_waived : string list;
  fn_barrier : bool;
  fn_calls : call list;  (* every global reference, with handler context *)
  fn_writes : write list;  (* unguarded writes to non-local state *)
  fn_raises : (string * int) list;  (* exception name, line *)
}

type par_site = {
  ps_callee : string;
  ps_file : string;
  ps_line : int;
  ps_col : int;
  ps_waived : string list;  (* waivers on the enclosing binding *)
  ps_handled : string list;  (* handlers enclosing the call site *)
  ps_catch_all : bool;
  ps_worker_calls : call list;
  ps_worker_writes : write list;
  ps_worker_raises : (string * int) list;
}

type memo_site = {
  ms_callee : string;
  ms_file : string;
  ms_line : int;
  ms_col : int;
  ms_waived : string list;
  ms_key_refs : sym list;
  ms_compute_refs : sym list;
}

type unit_facts = {
  uf_file : string;
  uf_mutables : (sym * string * string list) list;  (* sym, kind, waivers *)
  uf_fns : fn list;
  uf_pars : par_site list;
  uf_memos : memo_site list;
  uf_refs : sym list;  (* other units' values this unit names *)
  uf_exports : (sym * int) list;  (* a library interface's vals, by line *)
  uf_findings : finding list;  (* resolved per-unit: fold-flow, cmt-error *)
}

let empty_unit file =
  { uf_file = file;
    uf_mutables = [];
    uf_fns = [];
    uf_pars = [];
    uf_memos = [];
    uf_refs = [];
    uf_exports = [];
    uf_findings = []
  }

(* ------------------------------------------------------------------ *)
(* Symbol normalization                                                *)
(* ------------------------------------------------------------------ *)

(* [Path.name] spells every constructor (including ones newer
   compilers add) as a dotted string, so splitting it is portable
   across 4.14 and 5.1. *)
let path_parts p = String.split_on_char '.' (Path.name p)

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

(* "Stdlib.List.sort" -> "List.sort"; "Par.map" -> "Par.map";
   "Stdlib.raise" -> "raise".  [Pident]s are resolved by the caller
   (module-level binding vs. local) before reaching this point. *)
let norm_parts parts =
  match strip_stdlib parts with
  | [] -> ""
  | [ x ] -> x
  | parts -> (
      match List.rev parts with
      | v :: m :: _ -> m ^ "." ^ v
      | _ -> String.concat "." parts)

(* Unit name from [cmt_modname]: dune mangles executable modules to
   "Dune__exe__Netcalc_cli". *)
let unit_name_of_modname m =
  match String.rindex_opt m '_' with
  | Some i when i >= 1 && m.[i - 1] = '_' ->
      String.sub m (i + 1) (String.length m - i - 1)
  | _ -> m

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                          *)
(* ------------------------------------------------------------------ *)

let tbl_module m =
  m = "Hashtbl"
  ||
  let lm = String.lowercase_ascii m in
  let n = String.length lm in
  n >= 3 && String.sub lm (n - 3) 3 = "tbl"

let split_sym s =
  match String.index_opt s '.' with
  | None -> ("", s)
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* Module-level bindings with these right-hand sides are mutable state
   the typed rules track.  [Incremental.table] and [Atomic.make] are
   typed-pass extras: the syntactic race-global rule predates them and
   its baseline is pinned, while par-escape/cache-key want them. *)
let mutable_rhs_callee s =
  let m, v = split_sym s in
  match (m, v) with
  | "", "ref" -> Some "ref cell"
  | _, "create" when tbl_module m -> Some "hash table"
  | "Buffer", "create" -> Some "buffer"
  | "Queue", "create" -> Some "queue"
  | "Stack", "create" -> Some "stack"
  | "Bytes", ("create" | "make") -> Some "byte buffer"
  | "Array", ("make" | "init" | "create_float") -> Some "array"
  | "Weak", "create" -> Some "weak array"
  | "Atomic", "make" -> Some "atomic"
  | "Incremental", "table" -> Some "memo table"
  | _ -> None

(* Calls that mutate their first unlabeled argument. *)
let mutator_callee s =
  let m, v = split_sym s in
  match (m, v) with
  | "", (":=" | "incr" | "decr") -> true
  | _, ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    when tbl_module m ->
      true
  | ( "Buffer",
      ( "add_string" | "add_char" | "add_substring" | "add_bytes"
      | "add_buffer" | "add_channel" | "clear" | "reset" | "truncate" ) ) ->
      true
  | "Queue", ("push" | "add" | "pop" | "take" | "clear" | "transfer") -> true
  | "Stack", ("push" | "pop" | "clear") -> true
  | "Array", ("set" | "fill" | "blit" | "unsafe_set") -> true
  | "Bytes", ("set" | "fill" | "blit" | "unsafe_set") -> true
  | ( "Atomic",
      ("set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr"
      | "decr") ) ->
      true
  | _ -> false

let sort_callee s =
  let m, v = split_sym s in
  match (m, v) with
  | "List", ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") -> true
  | "Array", ("sort" | "stable_sort" | "fast_sort") -> true
  | _ -> false

let fold_callee s =
  let m, v = split_sym s in
  v = "fold" && tbl_module m

let par_callee s = List.mem s [ "Par.map"; "Par.mapi"; "Par.map_reduce" ]

let memo_callee s =
  List.mem s [ "Incremental.memoize"; "Minplus.cached" ]

let raise_callee s =
  match s with
  | "raise" | "raise_notrace" -> `Dynamic
  | "failwith" -> `Named "Failure"
  | "invalid_arg" -> `Named "Invalid_argument"
  | _ -> `No

(* Order-preserving list transforms: a nondeterministically ordered
   list stays order-sensitive through these. *)
let order_preserving s =
  let m, v = split_sym s in
  match (m, v) with
  | ( "List",
      ( "rev" | "map" | "mapi" | "rev_map" | "filter" | "filter_map"
      | "concat" | "concat_map" | "append" | "flatten" | "tl" ) ) ->
      true
  | "Array", "of_list" -> true
  | _ -> false

(* Exceptions that are local control flow by convention: crossing a
   Par worker boundary means they were meant to be caught near their
   raise site and now surface somewhere unrelated. *)
let par_danger_exn = [ "Not_found"; "Exit"; "End_of_file" ]

(* ------------------------------------------------------------------ *)
(* Attribute parsing (compiler-libs parsetree attributes)              *)
(* ------------------------------------------------------------------ *)

let attr_string_payload (a : Parsetree.attribute) =
  match a.attr_payload with
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

(* Malformed payloads are reported by the syntactic pass (which sees
   every source file); here we only consume well-formed waivers. *)
let waivers_of_attributes (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = legacy_waiver_name then
        match attr_string_payload a with
        | Some s when String.trim s <> "" -> legacy_rules
        | _ -> []
      else if a.attr_name.txt = waive_name then
        match Option.bind (attr_string_payload a) parse_waive_payload with
        | Some (rules, _) -> rules
        | None -> []
      else [])
    attrs

let has_barrier_attr (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = barrier_name)
    attrs

(* ------------------------------------------------------------------ *)
(* Typedtree helpers                                                   *)
(* ------------------------------------------------------------------ *)

open Typedtree

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum
let loc_col (loc : Location.t) =
  loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let unlabeled args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let arg_exprs args = List.filter_map (fun (_, e) -> e) args

let split_last l =
  match List.rev l with
  | [] -> None
  | x :: rev_init -> Some (List.rev rev_init, x)

let binding_ident vb =
  let rec go p =
    match p.pat_desc with
    | Tpat_var (id, _) -> Some id
    | Tpat_alias (p, _, _) -> go p
    | _ -> None
  in
  go vb.vb_pat

(* All idents bound by patterns (and [for] indices) within [e]. *)
let bound_idents_of_expr e =
  let acc = Hashtbl.create 32 in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    List.iter (fun id -> Hashtbl.replace acc id ()) (pat_bound_idents p);
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace acc id ()
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  acc

(* The exception names a handler-case pattern catches.
   [`All] is a wildcard. *)
let rec handler_of_pat p =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> `All
  | Tpat_alias (p, _, _) -> handler_of_pat p
  | Tpat_construct (_, cstr, _, _) -> `Names [ cstr.Types.cstr_name ]
  | Tpat_or (a, b, _) -> (
      match (handler_of_pat a, handler_of_pat b) with
      | `All, _ | _, `All -> `All
      | `Names x, `Names y -> `Names (x @ y))
  | _ -> `Names []

let handlers_of_cases cases =
  List.fold_left
    (fun (names, catch_all) c ->
      match handler_of_pat c.c_lhs with
      | `All -> (names, true)
      | `Names ns -> (ns @ names, catch_all))
    ([], false) cases

(* Exception-handler part of [match] cases ([| exception E -> ...]). *)
let exn_handlers_of_match_cases cases =
  List.fold_left
    (fun (names, catch_all) c ->
      match split_pattern c.c_lhs with
      | _, Some exn_pat -> (
          match handler_of_pat exn_pat with
          | `All -> (names, true)
          | `Names ns -> (ns @ names, catch_all))
      | _, None -> (names, catch_all))
    ([], false) cases

let head_norm globals e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
          match Hashtbl.find_opt globals id with
          | Some sym -> Some sym
          | None -> Some (Ident.name id))
      | _ -> Some (norm_parts (path_parts p)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-unit extraction                                                 *)
(* ------------------------------------------------------------------ *)

type scope = {
  sc_file : string;
  sc_globals : (Ident.t, sym) Hashtbl.t;  (* module-level idents *)
  sc_locals : (Ident.t, unit) Hashtbl.t;  (* bound within this scope *)
  (* resolved global refs of local let-bindings, for key-expression
     closure and worker resolution *)
  sc_let_refs : (Ident.t, sym list) Hashtbl.t;
  sc_let_funs : (Ident.t, expression) Hashtbl.t;
  mutable sc_lock : int;
  mutable sc_sort : int;
  mutable sc_handlers : (string list * bool) list;
  mutable sc_calls : call list;
  mutable sc_writes : write list;
  mutable sc_raises : (string * int) list;
  (* unsorted-fold-flow bookkeeping *)
  sc_tainted : (Ident.t, int) Hashtbl.t;  (* ident -> fold line *)
  mutable sc_sorted : Ident.t list;  (* idents later passed to a sort *)
}

let new_scope ~file ~globals locals =
  { sc_file = file;
    sc_globals = globals;
    sc_locals = locals;
    sc_let_refs = Hashtbl.create 16;
    sc_let_funs = Hashtbl.create 16;
    sc_lock = 0;
    sc_sort = 0;
    sc_handlers = [];
    sc_calls = [];
    sc_writes = [];
    sc_raises = [];
    sc_tainted = Hashtbl.create 4;
    sc_sorted = []
  }

let scope_handled sc =
  List.fold_left
    (fun (names, ca) (ns, c) -> (ns @ names, ca || c))
    ([], false) sc.sc_handlers

(* Resolve an ident path to the global symbols it denotes: a module
   path directly; a local let-binding to the refs of its right-hand
   side (so a let-bound key expression still reveals what it reads). *)
let resolve_syms sc p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt sc.sc_globals id with
      | Some sym -> [ sym ]
      | None -> (
          match Hashtbl.find_opt sc.sc_let_refs id with
          | Some syms -> syms
          | None -> []))
  | _ -> [ norm_parts (path_parts p) ]

(* The global references of a sub-expression (key/compute arguments),
   with local lets resolved through [sc_let_refs]. *)
let refs_of_expr sc e =
  let acc = ref [] in
  let expr sub x =
    (match x.exp_desc with
    | Texp_ident (p, _, _) -> acc := resolve_syms sc p @ !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  List.sort_uniq String.compare !acc

let expr_contains pred e =
  let found = ref false in
  let expr sub x =
    if !found then ()
    else if pred x then found := true
    else Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let builds_list e =
  expr_contains
    (fun x ->
      match x.exp_desc with
      | Texp_construct (_, cstr, _) -> cstr.Types.cstr_name = "::"
      | _ -> false)
    e

(* An unsorted hash-table fold building a list somewhere inside [e]
   (the right-hand side of a let): returns the fold's line. *)
let unsorted_fold_in sc e =
  let found = ref None in
  let expr sub x =
    (if !found = None then
       match x.exp_desc with
       | Texp_apply (h, args) -> (
           match head_norm sc.sc_globals h with
           | Some s when fold_callee s -> (
               match unlabeled args with
               | cb :: _ when builds_list cb ->
                   found := Some (loc_line x.exp_loc)
               | _ -> ())
           | _ -> ())
       | _ -> ());
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  match !found with
  | Some line ->
      (* A sort applied anywhere in the same right-hand side
         ([fold ... |> List.sort]) already pins the order. *)
      let sorted =
        expr_contains
          (fun x ->
            match x.exp_desc with
            | Texp_ident (p, _, _) -> sort_callee (norm_parts (path_parts p))
            | _ -> false)
          e
      in
      if sorted then None else Some line
  | None -> None

(* Classify a write target. *)
let rec write_target sc e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id ->
          if Hashtbl.mem sc.sc_locals id then `Local
          else (
            match Hashtbl.find_opt sc.sc_globals id with
            | Some sym -> `Global (Ident.name id, sym)
            | None -> `Captured (Ident.name id))
      | _ ->
          let parts = path_parts p in
          `Global (String.concat "." (strip_stdlib parts), norm_parts parts))
  | Texp_field (inner, _, _) -> write_target sc inner
  | _ -> `Opaque

let record_write sc ~loc target =
  if sc.sc_lock = 0 then
    match target with
    | `Local -> ()
    | `Global (name, sym) ->
        sc.sc_writes <-
          { w_name = name;
            w_sym = Some sym;
            w_captured = false;
            w_file = sc.sc_file;
            w_line = loc_line loc;
            w_col = loc_col loc
          }
          :: sc.sc_writes
    | `Captured name ->
        sc.sc_writes <-
          { w_name = name;
            w_sym = None;
            w_captured = true;
            w_file = sc.sc_file;
            w_line = loc_line loc;
            w_col = loc_col loc
          }
          :: sc.sc_writes
    | `Opaque -> ()

(* Mutable sinks filled by [walk] across every scope of a unit. *)
type unit_acc = {
  mutable ua_pars : par_site list;
  mutable ua_memos : memo_site list;
  mutable ua_findings : finding list;
}

(* The main walker over a scope's expressions.  Special forms get
   manual recursion with adjusted context; everything else goes
   through [Tast_iterator.default_iterator], which keeps the walker
   portable across 4.14 and 5.1 typedtree differences. *)
let rec walk sc ~ua ~binding_waivers e =
  let it = make_iterator sc ~ua ~binding_waivers in
  it.Tast_iterator.expr it e

and make_iterator sc ~ua ~binding_waivers =
  let expr sub (e : expression) =
    let dflt () = Tast_iterator.default_iterator.expr sub e in
    let walk_e x = sub.Tast_iterator.expr sub x in
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let handled, catch_all = scope_handled sc in
        List.iter
          (fun s ->
            sc.sc_calls <-
              { c_sym = s; c_handled = handled; c_catch_all = catch_all }
              :: sc.sc_calls)
          (match p with
          | Path.Pident id -> (
              if Hashtbl.mem sc.sc_locals id then []
              else
                match Hashtbl.find_opt sc.sc_globals id with
                | Some sym -> [ sym ]
                | None -> [])
          | _ -> [ norm_parts (path_parts p) ])
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            walk_e vb.vb_expr;
            match binding_ident vb with
            | Some id ->
                Hashtbl.replace sc.sc_let_refs id (refs_of_expr sc vb.vb_expr);
                (match vb.vb_expr.exp_desc with
                | Texp_function _ -> Hashtbl.replace sc.sc_let_funs id vb.vb_expr
                | _ -> ());
                if sc.sc_sort = 0 then (
                  match unsorted_fold_in sc vb.vb_expr with
                  | Some line -> Hashtbl.replace sc.sc_tainted id line
                  | None -> ())
            | None -> ())
          vbs;
        walk_e body
    | Texp_setfield (lhs, _, _, rhs) ->
        record_write sc ~loc:e.exp_loc (write_target sc lhs);
        walk_e lhs;
        walk_e rhs
    | Texp_try (body, cases) ->
        let names, catch_all = handlers_of_cases cases in
        sc.sc_handlers <- (names, catch_all) :: sc.sc_handlers;
        walk_e body;
        sc.sc_handlers <- List.tl sc.sc_handlers;
        List.iter
          (fun c ->
            Option.iter walk_e c.c_guard;
            walk_e c.c_rhs)
          cases
    | Texp_match (scrut, cases, _) ->
        let names, catch_all = exn_handlers_of_match_cases cases in
        (if names <> [] || catch_all then (
           sc.sc_handlers <- (names, catch_all) :: sc.sc_handlers;
           walk_e scrut;
           sc.sc_handlers <- List.tl sc.sc_handlers)
         else walk_e scrut);
        List.iter
          (fun c ->
            Option.iter walk_e c.c_guard;
            walk_e c.c_rhs)
          cases
    | Texp_assert _ ->
        sc.sc_raises <- ("Assert_failure", loc_line e.exp_loc) :: sc.sc_raises;
        dflt ()
    | Texp_apply (h, args) -> (
        match head_norm sc.sc_globals h with
        | None -> dflt ()
        | Some s -> (
            match raise_callee s with
            | `Named exn ->
                if not (locally_handled sc exn) then
                  sc.sc_raises <- (exn, loc_line e.exp_loc) :: sc.sc_raises;
                List.iter walk_e (arg_exprs args)
            | `Dynamic ->
                let exn =
                  match unlabeled args with
                  | [ { exp_desc = Texp_construct (_, cstr, _); _ } ] ->
                      cstr.Types.cstr_name
                  | _ -> "<dynamic>"
                in
                if not (locally_handled sc exn) then
                  sc.sc_raises <- (exn, loc_line e.exp_loc) :: sc.sc_raises;
                List.iter walk_e (arg_exprs args)
            | `No ->
                if String.length s >= 9
                   && (let n = String.length s in
                       String.sub s (n - 9) 9 = "with_lock")
                then (
                  match split_last args with
                  | Some (init, (_, body)) ->
                      walk_e h;
                      List.iter walk_e (arg_exprs init);
                      sc.sc_lock <- sc.sc_lock + 1;
                      Option.iter walk_e body;
                      sc.sc_lock <- sc.sc_lock - 1
                  | None -> dflt ())
                else if sort_callee s then (
                  List.iter
                    (fun a ->
                      match a.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) ->
                          sc.sc_sorted <- id :: sc.sc_sorted
                      | _ -> ())
                    (unlabeled args);
                  walk_e h;
                  sc.sc_sort <- sc.sc_sort + 1;
                  List.iter walk_e (arg_exprs args);
                  sc.sc_sort <- sc.sc_sort - 1)
                else if s = "|>" || s = "@@" then (
                  (* [x |> List.sort cmp] / [List.sort cmp @@ x]: credit
                     the sort to the piped argument. *)
                  (match (s, unlabeled args) with
                  | "|>", [ lhs; rhs ] -> pipe_sort sc rhs lhs
                  | "@@", [ lhs; rhs ] -> pipe_sort sc lhs rhs
                  | _ -> ());
                  dflt ())
                else if mutator_callee s then (
                  (match unlabeled args with
                  | target :: _ ->
                      record_write sc ~loc:e.exp_loc (write_target sc target)
                  | [] -> ());
                  walk_e h;
                  List.iter walk_e (arg_exprs args))
                else if par_callee s then (
                  record_par_site sc ~ua ~binding_waivers ~callee:s
                    ~loc:e.exp_loc args;
                  walk_e h;
                  List.iter walk_e (arg_exprs args))
                else if memo_callee s then (
                  record_memo_site sc ~ua ~binding_waivers ~callee:s
                    ~loc:e.exp_loc args;
                  walk_e h;
                  List.iter walk_e (arg_exprs args))
                else dflt ()))
    | _ -> dflt ()
  in
  { Tast_iterator.default_iterator with expr }

and locally_handled sc exn =
  let names, catch_all = scope_handled sc in
  catch_all || List.mem exn names

and pipe_sort sc callee_side arg_side =
  let is_sort =
    match callee_side.exp_desc with
    | Texp_ident (p, _, _) -> sort_callee (norm_parts (path_parts p))
    | Texp_apply (h, _) -> (
        match head_norm sc.sc_globals h with
        | Some s -> sort_callee s
        | None -> false)
    | _ -> false
  in
  if is_sort then
    match arg_side.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> sc.sc_sorted <- id :: sc.sc_sorted
    | _ -> ()

(* A Par call site: analyze each worker argument in a fresh scope so
   that everything bound outside the worker (enclosing-function
   locals included) counts as captured.  Local let-bound helper
   functions referenced by the worker are pulled into the same worker
   scope, one level at a time, so [let bump () = ... in Par.map (fun x
   -> bump (); x) xs] still surfaces the write. *)
and record_par_site sc ~ua ~binding_waivers ~callee ~loc args =
  let workers =
    match callee with
    | "Par.map_reduce" ->
        List.filter_map
          (function
            | Asttypes.Labelled ("map" | "reduce"), (Some _ as e) -> e
            | _ -> None)
          args
    | _ -> (
        match unlabeled args with w :: _ -> [ w ] | [] -> [])
  in
  let locals = Hashtbl.create 32 in
  let wsc = new_scope ~file:sc.sc_file ~globals:sc.sc_globals locals in
  (* Resolution of captured locals still goes through the enclosing
     scope's let-bindings. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace wsc.sc_let_refs k v) sc.sc_let_refs;
  let queue = Queue.create () in
  let visited = Hashtbl.create 8 in
  List.iter (fun w -> Queue.add w queue) workers;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    (match w.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when not (Hashtbl.mem sc.sc_globals id) -> (
        (* a local ident: analyze its function body if we have one *)
        match Hashtbl.find_opt sc.sc_let_funs id with
        | Some body when not (Hashtbl.mem visited id) ->
            Hashtbl.replace visited id ();
            Queue.add body queue
        | _ -> ())
    | _ ->
        Hashtbl.iter
          (fun id () -> Hashtbl.replace locals id ())
          (bound_idents_of_expr w);
        walk wsc ~ua ~binding_waivers w;
        (* queue each local function the worker mentions, so its body
           is walked as part of the worker too *)
        Hashtbl.iter
          (fun id body ->
            if
              (not (Hashtbl.mem visited id))
              && expr_contains
                   (fun x ->
                     match x.exp_desc with
                     | Texp_ident (Path.Pident id', _, _) ->
                         Ident.same id id'
                     | _ -> false)
                   w
            then (
              Hashtbl.replace visited id ();
              Queue.add body queue))
          sc.sc_let_funs);
    ()
  done;
  let handled, catch_all = scope_handled sc in
  ua.ua_pars <-
    { ps_callee = callee;
      ps_file = sc.sc_file;
      ps_line = loc_line loc;
      ps_col = loc_col loc;
      ps_waived = binding_waivers;
      ps_handled = handled;
      ps_catch_all = catch_all;
      ps_worker_calls = wsc.sc_calls;
      ps_worker_writes = wsc.sc_writes;
      ps_worker_raises = wsc.sc_raises
    }
    :: ua.ua_pars

and record_memo_site sc ~ua ~binding_waivers ~callee ~loc args =
  let exprs = arg_exprs args in
  match split_last exprs with
  | None -> ()
  | Some (key_args, compute) ->
      ua.ua_memos <-
        { ms_callee = callee;
          ms_file = sc.sc_file;
          ms_line = loc_line loc;
          ms_col = loc_col loc;
          ms_waived = binding_waivers;
          ms_key_refs =
            List.sort_uniq String.compare
              (List.concat_map (refs_of_expr sc) key_args);
          ms_compute_refs = refs_of_expr sc compute
        }
        :: ua.ua_memos

(* ------------------------------------------------------------------ *)
(* Return-position scan for unsorted-fold-flow                         *)
(* ------------------------------------------------------------------ *)

(* The tail expressions of a function body: where its return value is
   built. *)
let rec tails e acc =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left (fun acc c -> tails c.c_rhs acc) acc cases
  | Texp_let (_, _, body) -> tails body acc
  | Texp_sequence (_, b) -> tails b acc
  | Texp_ifthenelse (_, t, f) ->
      let acc = tails t acc in
      (match f with Some f -> tails f acc | None -> acc)
  | Texp_match (_, cases, _) ->
      List.fold_left (fun acc c -> tails c.c_rhs acc) acc cases
  | Texp_try (_, cases) ->
      List.fold_left (fun acc c -> tails c.c_rhs acc) acc cases
  | _ -> e :: acc

(* Idents whose order reaches the return value of a tail expression:
   the ident itself, tuple/constructor/record components, and
   order-preserving list transforms of it. *)
let rec returned_idents globals e acc =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> id :: acc
  | Texp_tuple es -> List.fold_left (fun a x -> returned_idents globals x a) acc es
  | Texp_construct (_, _, es) ->
      List.fold_left (fun a x -> returned_idents globals x a) acc es
  | Texp_record { fields; _ } ->
      Array.fold_left
        (fun a (_, def) ->
          match def with
          | Overridden (_, x) -> returned_idents globals x a
          | Kept _ -> a)
        acc fields
  | Texp_apply (h, args) -> (
      match head_norm globals h with
      | Some s when order_preserving s ->
          List.fold_left
            (fun a x -> returned_idents globals x a)
            acc (unlabeled args)
      | _ -> acc)
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Unit analysis                                                       *)
(* ------------------------------------------------------------------ *)

let mutable_kind_of_rhs globals e =
  match e.exp_desc with
  | Texp_apply (h, _) -> (
      match head_norm globals h with
      | Some s -> mutable_rhs_callee s
      | None -> None)
  | Texp_array _ -> Some "array"
  | Texp_record { fields; _ }
    when Array.exists
           (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
           fields ->
      Some "record with mutable fields"
  | _ -> None

(* Every other unit's value that [str] names, applied or passed as a
   value: what keeps a library export alive for unused-export.  A unit
   cannot name itself, so only its own [Pident]s point back into it,
   and those are skipped. *)
let external_refs str =
  let acc = ref [] in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident _, _, _) -> ()
    | Texp_ident (p, _, _) -> acc := norm_parts (path_parts p) :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  List.sort_uniq String.compare !acc

let facts_of_structure ~file ~unit_name str =
  (* pass A: module-level bindings -> symbols *)
  let globals : (Ident.t, sym) Hashtbl.t = Hashtbl.create 64 in
  let bindings : (sym * string * value_binding) list ref = ref [] in
  let rec collect_str prefix s = List.iter (collect_item prefix) s.str_items
  and collect_item prefix it =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_ident vb with
            | Some id ->
                let sym = prefix ^ "." ^ Ident.name id in
                Hashtbl.replace globals id sym;
                bindings := (sym, prefix, vb) :: !bindings
            | None -> ())
          vbs
    | Tstr_module mb -> collect_mb prefix mb
    | Tstr_recmodule mbs -> List.iter (collect_mb prefix) mbs
    | Tstr_include incl -> collect_mod prefix incl.incl_mod
    | _ -> ()
  and collect_mb prefix mb =
    let inner =
      match mb.mb_id with Some id -> Ident.name id | None -> prefix
    in
    collect_mod inner mb.mb_expr
  and collect_mod prefix me =
    match me.mod_desc with
    | Tmod_structure s -> collect_str prefix s
    | Tmod_constraint (m, _, _, _) -> collect_mod prefix m
    | Tmod_functor (_, m) -> collect_mod prefix m
    | _ -> ()
  in
  collect_str unit_name str;
  let bindings = List.rev !bindings in

  (* pass B: per-binding facts *)
  let ua = { ua_pars = []; ua_memos = []; ua_findings = [] } in
  let mutables = ref [] in
  let fns = ref [] in
  List.iter
    (fun (sym, _prefix, vb) ->
      let waivers = waivers_of_attributes vb.vb_attributes in
      let barrier = has_barrier_attr vb.vb_attributes in
      (match mutable_kind_of_rhs globals vb.vb_expr with
      | Some kind -> mutables := (sym, kind, waivers) :: !mutables
      | None -> ());
      let locals = bound_idents_of_expr vb.vb_expr in
      let sc = new_scope ~file ~globals locals in
      walk sc ~ua ~binding_waivers:waivers vb.vb_expr;
      (* unsorted-fold-flow: tainted lets reaching the return value *)
      (if not (List.mem "unsorted-fold-flow" waivers) then
         let tail_ids =
           tails vb.vb_expr []
           |> List.fold_left (fun a t -> returned_idents globals t a) []
         in
         Hashtbl.fold (fun id line acc -> (id, line) :: acc) sc.sc_tainted []
         |> List.sort (fun (_, a) (_, b) -> compare a b)
         |> List.iter
              (fun (id, fold_line) ->
             if
               (not (List.exists (Ident.same id) sc.sc_sorted))
               && List.exists (Ident.same id) tail_ids
             then
               ua.ua_findings <-
                 { file;
                   line = fold_line;
                   col = 0;
                   rule = "unsorted-fold-flow";
                   msg =
                     Printf.sprintf
                       "hash-table fold builds [%s] in unspecified iteration \
                        order and it flows into the value returned by %s"
                       (Ident.name id) sym;
                   hint =
                     "sort before returning (the order crosses the function \
                      boundary), or waive with [@@lint.waive \
                      \"unsorted-fold-flow: reason\"]"
                 }
                 :: ua.ua_findings));
      fns :=
        { fn_sym = sym;
          fn_file = file;
          fn_line = loc_line vb.vb_loc;
          fn_waived = waivers;
          fn_barrier = barrier;
          fn_calls = sc.sc_calls;
          fn_writes = sc.sc_writes;
          fn_raises = sc.sc_raises
        }
        :: !fns)
    bindings;
  { uf_file = file;
    uf_mutables = !mutables;
    uf_fns = !fns;
    uf_pars = ua.ua_pars;
    uf_memos = ua.ua_memos;
    uf_refs = external_refs str;
    uf_exports = [];
    uf_findings = ua.ua_findings
  }

(* The values a library interface exports, with their [.mli] lines.
   Dune names every executable unit Dune__exe__*, so only library
   units declare exports. *)
let exports_of_signature ~unit_name sg =
  List.filter_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          Some (unit_name ^ "." ^ vd.val_name.txt, loc_line vd.val_loc)
      | _ -> None)
    sg.sig_items

let library_unit modname = not (String.starts_with ~prefix:"Dune__exe" modname)

let facts_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      let u = empty_unit path in
      { u with
        uf_findings =
          [ { file = path;
              line = 0;
              col = 0;
              rule = "cmt-error";
              msg =
                Printf.sprintf "cannot read cmt: %s" (Printexc.to_string exn);
              hint =
                "rebuild (dune build @check) with the same compiler as the \
                 linter"
            }
          ]
      }
  | cmt -> (
      let file =
        match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> path
      in
      let modname = cmt.Cmt_format.cmt_modname in
      let unit_name = unit_name_of_modname modname in
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str -> facts_of_structure ~file ~unit_name str
      | Cmt_format.Interface sg when library_unit modname ->
          { (empty_unit file) with
            uf_exports = exports_of_signature ~unit_name sg
          }
      | _ -> empty_unit file)

(* ------------------------------------------------------------------ *)
(* Global phases                                                       *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

let analyze (units : unit_facts list) : finding list =
  let findings = ref [] in
  let add f = findings := f :: !findings in

  let fn_tbl : (sym, fn) Hashtbl.t = Hashtbl.create 512 in
  let mut_tbl : (sym, string * string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter (fun f -> Hashtbl.replace fn_tbl f.fn_sym f) u.uf_fns;
      List.iter
        (fun (s, kind, waivers) -> Hashtbl.replace mut_tbl s (kind, waivers))
        u.uf_mutables;
      List.iter add u.uf_findings)
    units;
  let mut_waived rule s =
    match Hashtbl.find_opt mut_tbl s with
    | Some (_, waivers) -> List.mem rule waivers
    | None -> false
  in

  (* -- raise-set fixpoint ------------------------------------------- *)
  let raises : (sym, SSet.t) Hashtbl.t = Hashtbl.create 512 in
  let get_raises s =
    match Hashtbl.find_opt raises s with Some x -> x | None -> SSet.empty
  in
  let raises_through (c : call) =
    if c.c_catch_all then SSet.empty
    else SSet.diff (get_raises c.c_sym) (SSet.of_list c.c_handled)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun s (f : fn) ->
        let direct = SSet.of_list (List.map fst f.fn_raises) in
        let v =
          List.fold_left
            (fun acc c -> SSet.union acc (raises_through c))
            direct f.fn_calls
        in
        if not (SSet.equal v (get_raises s)) then (
          Hashtbl.replace raises s v;
          changed := true))
      fn_tbl
  done;

  (* -- reachable-mutable fixpoint (for cache-key) ------------------- *)
  let mreach : (sym, SSet.t) Hashtbl.t = Hashtbl.create 512 in
  let get_mreach s =
    match Hashtbl.find_opt mreach s with Some x -> x | None -> SSet.empty
  in
  let direct_and_reach s =
    if Hashtbl.mem mut_tbl s then SSet.singleton s else get_mreach s
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun s (f : fn) ->
        let v =
          List.fold_left
            (fun acc c -> SSet.union acc (direct_and_reach c.c_sym))
            SSet.empty f.fn_calls
        in
        if not (SSet.equal v (get_mreach s)) then (
          Hashtbl.replace mreach s v;
          changed := true))
      fn_tbl
  done;
  let mreach_of_refs refs =
    List.fold_left
      (fun acc s -> SSet.union acc (direct_and_reach s))
      SSet.empty refs
  in

  (* -- par-escape --------------------------------------------------- *)
  let reachable_from roots =
    let visited = Hashtbl.create 64 in
    let rec go s =
      if not (Hashtbl.mem visited s) then (
        Hashtbl.replace visited s ();
        match Hashtbl.find_opt fn_tbl s with
        | Some f -> List.iter (fun c -> go c.c_sym) f.fn_calls
        | None -> ())
    in
    List.iter go roots;
    visited
  in
  let flag_write ~via ~waivers (w : write) =
    let waived =
      List.mem "par-escape" waivers
      || match w.w_sym with Some s -> mut_waived "par-escape" s | None -> false
    in
    if not waived then
      let what =
        match w.w_sym with
        | Some s -> (
            match Hashtbl.find_opt mut_tbl s with
            | Some (kind, _) -> Printf.sprintf "top-level mutable %s [%s]" kind s
            | None -> if w.w_captured then
                Printf.sprintf "captured mutable [%s]" w.w_name
              else Printf.sprintf "[%s]" s)
        | None -> Printf.sprintf "captured mutable [%s]" w.w_name
      in
      (* only writes to known mutable state or captured state count *)
      let tracked =
        w.w_captured
        || match w.w_sym with Some s -> Hashtbl.mem mut_tbl s | None -> false
      in
      if tracked then
        add
          { file = w.w_file;
            line = w.w_line;
            col = w.w_col;
            rule = "par-escape";
            msg =
              Printf.sprintf
                "unsynchronized write to %s on a path reachable from %s \
                 workers"
                what via;
            hint =
              "wrap the write in Obs_sync.with_lock, keep the state local to \
               the worker, or waive with [@@lint.waive \"par-escape: \
               reason\"]"
          }
  in
  List.iter
    (fun u ->
      List.iter
        (fun ps ->
          let via =
            Printf.sprintf "%s (%s:%d)" ps.ps_callee ps.ps_file ps.ps_line
          in
          (* direct writes in the worker closure *)
          List.iter (flag_write ~via ~waivers:ps.ps_waived) ps.ps_worker_writes;
          (* writes anywhere reachable from the worker's references *)
          let roots = List.map (fun c -> c.c_sym) ps.ps_worker_calls in
          let reach = reachable_from roots in
          Hashtbl.iter
            (fun s () ->
              match Hashtbl.find_opt fn_tbl s with
              | Some (f : fn) ->
                  if not (List.mem "par-escape" f.fn_waived) then
                    List.iter
                      (fun w ->
                        if not w.w_captured then
                          flag_write ~via ~waivers:f.fn_waived w)
                      f.fn_writes
              | None -> ())
            reach)
        u.uf_pars)
    units;

  (* -- exn-escape at Par sites -------------------------------------- *)
  List.iter
    (fun u ->
      List.iter
        (fun ps ->
          if not (List.mem "exn-escape" ps.ps_waived || ps.ps_catch_all) then (
            let direct = SSet.of_list (List.map fst ps.ps_worker_raises) in
            let via_calls =
              List.fold_left
                (fun acc c -> SSet.union acc (raises_through c))
                SSet.empty ps.ps_worker_calls
            in
            let escapes =
              SSet.diff (SSet.union direct via_calls)
                (SSet.of_list ps.ps_handled)
            in
            let dangerous =
              SSet.inter escapes (SSet.of_list par_danger_exn)
            in
            SSet.iter
              (fun exn ->
                add
                  { file = ps.ps_file;
                    line = ps.ps_line;
                    col = ps.ps_col;
                    rule = "exn-escape";
                    msg =
                      Printf.sprintf
                        "%s can cross the %s worker boundary uncaught: it is \
                         control flow that was meant to be handled near its \
                         raise site"
                        exn ps.ps_callee;
                    hint =
                      "validate inputs before the parallel section, catch \
                       the exception inside the worker, or waive the \
                       enclosing binding with [@@lint.waive \"exn-escape: \
                       reason\"]"
                  })
              dangerous))
        u.uf_pars)
    units;

  (* -- exn-escape at barriers --------------------------------------- *)
  Hashtbl.iter
    (fun s (f : fn) ->
      if f.fn_barrier && not (List.mem "exn-escape" f.fn_waived) then
        SSet.iter
          (fun exn ->
            add
              { file = f.fn_file;
                line = f.fn_line;
                col = 0;
                rule = "exn-escape";
                msg =
                  (if exn = "<dynamic>" then
                     Printf.sprintf
                       "%s re-raises a dynamic exception past its \
                        [@@lint.exn_barrier]"
                       s
                   else
                     Printf.sprintf
                       "%s can let %s escape past its [@@lint.exn_barrier]"
                       s exn);
                hint =
                  "a barrier function must convert every exception into a \
                   response value (catch-all at the dispatch point)"
              })
          (get_raises s))
    fn_tbl;

  (* -- cache-key ---------------------------------------------------- *)
  List.iter
    (fun u ->
      List.iter
        (fun ms ->
          if not (List.mem "cache-key" ms.ms_waived) then (
            let key_amb = mreach_of_refs ms.ms_key_refs in
            let comp_amb = mreach_of_refs ms.ms_compute_refs in
            let unkeyed =
              SSet.filter
                (fun s -> not (mut_waived "cache-key" s))
                (SSet.diff comp_amb key_amb)
            in
            (* One finding per memo site, naming every unkeyed symbol
               — per-symbol findings at the same line would collapse
               in dedup and hide all but the first. *)
            if not (SSet.is_empty unkeyed) then
              add
                { file = ms.ms_file;
                  line = ms.ms_line;
                  col = ms.ms_col;
                  rule = "cache-key";
                  msg =
                    Printf.sprintf
                      "%s compute reads mutable state not folded into the \
                       cache key (a stale hit silently replays a value \
                       computed under different state): %s"
                      ms.ms_callee
                      (String.concat ", " (SSet.elements unkeyed));
                  hint =
                    "fold the state into the key expression, or — where it \
                     cannot change the computed value — waive the state \
                     binding with [@@lint.waive \"cache-key: reason\"]"
                }))
        u.uf_memos)
    units;

  (* -- unused-export ------------------------------------------------ *)
  let referenced = Hashtbl.create 1024 in
  List.iter
    (fun u -> List.iter (fun s -> Hashtbl.replace referenced s ()) u.uf_refs)
    units;
  List.iter
    (fun u ->
      List.iter
        (fun (s, line) ->
          if not (Hashtbl.mem referenced s) then
            add
              { file = u.uf_file;
                line;
                col = 0;
                rule = "unused-export";
                msg =
                  Printf.sprintf
                    "%s is exported, but no other compilation unit references \
                     it"
                    s;
                hint =
                  "delete it, or drop it from the .mli if its own module \
                   still uses it (an export without a caller has no waiver)"
              })
        u.uf_exports)
    units;

  !findings
