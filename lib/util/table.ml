type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }

let add_row t row =
  let ncols = List.length t.header in
  let n = List.length row in
  if n > ncols then invalid_arg "Table.add_row: row wider than header";
  let row = if n < ncols then row @ List.init (ncols - n) (fun _ -> "") else row in
  t.rows <- row :: t.rows

let float_cell x =
  if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else Printf.sprintf "%.4g" x

let add_floats t xs = add_row t (List.map float_cell xs)

let to_string t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let width c =
    List.fold_left
      (fun acc row -> Stdlib.max acc (String.length (List.nth row c)))
      0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.map2 (fun w cell -> Printf.sprintf "%*s" w cell) widths row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row t.header :: sep :: List.map render_row rows)

let print t = print_endline (to_string t)

(* RFC 4180: a cell containing a comma, a double quote, or a line break
   (LF or CR) is wrapped in double quotes, with embedded quotes
   doubled.  Method names and scenario labels flow into CSV output
   unmodified, so this must hold for arbitrary strings. *)
let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let rows = t.header :: List.rev t.rows in
  String.concat "\n"
    (List.map (fun row -> String.concat "," (List.map csv_cell row)) rows)
  ^ "\n"

let save_csv ~dir ~name t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (name ^ ".csv")) in
  output_string oc (to_csv t);
  close_out oc
