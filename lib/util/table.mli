(** Plain-text tables for experiment output.

    The bench harness prints every reproduced figure as an aligned text
    table; this module does the width bookkeeping. *)

type t

val create : header:string list -> t
(** A table with the given column names. *)

val add_row : t -> string list -> unit
(** Append a row.  Rows shorter than the header are right-padded with
    empty cells; longer rows raise [Invalid_argument]. *)

val add_floats : t -> float list -> unit
(** Append a row of floats, each rendered by {!float_cell}. *)

val to_string : t -> string
(** Render with aligned columns, a separator under the header. *)

val print : t -> unit
(** [print t] writes [to_string t] to stdout followed by a newline. *)

val to_csv : t -> string
(** Comma-separated rendering, header first.  Cells containing commas,
    double quotes or line breaks (LF or CR) are quoted RFC-4180 style,
    with embedded quotes doubled, so arbitrary method names and
    scenario labels round-trip through CSV readers. *)

val save_csv : dir:string -> name:string -> t -> unit
(** Write [to_csv] to [dir/name.csv], creating [dir] if needed. *)

val float_cell : float -> string
(** Render a float as [%.4g], with infinities as ["inf"] and
    ["-inf"]. *)
