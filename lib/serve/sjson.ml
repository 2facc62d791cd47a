type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let duplicate_key = "duplicate key"

(* Sorting the keys keeps the check O(n log n) in the object's size, so
   a long line of distinct keys cannot make it quadratic. *)
let check_unique_keys fields =
  let rec scan = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then raise (Parse_error duplicate_key);
        scan rest
    | _ -> ()
  in
  scan (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the string.  The cursor is a
   local ref per parse call, so the parser is reentrant (no module
   state to lock).                                                      *)
(* ------------------------------------------------------------------ *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected '%c', got '%c'" c d)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  (* Encode a Unicode scalar value as UTF-8 bytes. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some c -> (
              advance ();
              match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let cp = hex4 () in
                  let cp =
                    (* surrogate pair *)
                    if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
                       && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                      else fail "unpaired surrogate"
                    end
                    else cp
                  in
                  add_utf8 buf cp
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c)));
          loop ())
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if (match peek () with Some '-' -> true | _ -> false) then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if (match peek () with Some '.' -> true | _ -> false) then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if (match peek () with Some '}' -> true | _ -> false) then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, v) :: acc)
            | Some '}' ->
                advance ();
                let fields = List.rev ((key, v) :: acc) in
                check_unique_keys fields;
                fields
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if (match peek () with Some ']' -> true | _ -> false) then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elems [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after document";
  v

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* JSON has no non-finite numbers.  Rendering them as [null] (the old
   behaviour) conflated "unbounded" with "absent", so clients could not
   tell an unstable flow's infinite bound from a missing field; the
   protocol instead uses unambiguous string sentinels. *)
let nonfinite_repr x =
  if Float.is_nan x then "nan" else if Float.sign_bit x then "-inf" else "inf"

(* Shortest representation that round-trips: try increasing precision,
   settle for full 17 digits.  Deterministic, so protocol transcripts
   can be pinned byte-for-byte. *)
let render_float x =
  if not (Float.is_finite x) then "\"" ^ nonfinite_repr x ^ "\""
  else if Float_ops.eq_exact (Float.rem x 1.) 0. && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p x in
      if Float_ops.eq_exact (float_of_string s) x then Some s else None
    in
    match try_prec 12 with
    | Some s -> s
    | None -> (
        match try_prec 15 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" x)

let escape_string buf str =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    str;
  Buffer.add_char buf '"'

let render v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num x -> Buffer.add_string buf (render_float x)
    | Str s -> escape_string buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let num_of_int i = Num (float_of_int i)
let float_repr x = if Float.is_finite x then Num x else Str (nonfinite_repr x)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Num x -> Some x
  | Str "inf" -> Some infinity
  | Str "-inf" -> Some neg_infinity
  | Str "nan" -> Some nan
  | _ -> None

(* OCaml ints span [-2^62, 2^62).  [float_of_int max_int] rounds up to
   2^62, so a bound written with it would admit 2^62, which
   [int_of_float] wraps to [min_int]. *)
let to_int = function
  | Num x
    when Float_ops.eq_exact (Float.rem x 1.) 0.
         && x >= -0x1p62 && x < 0x1p62 ->
      Some (int_of_float x)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
