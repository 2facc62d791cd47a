(** Minimal JSON: the serve line protocol, the bench perf JSON and the
    Chrome trace export all build and render documents with it.

    The container ships no JSON library, and these documents are small
    and flat, so this is a self-contained value type with a strict
    parser and a deterministic renderer (object keys keep their
    construction order; numbers render through a shortest round-trip
    format), which is what makes golden-transcript tests
    byte-stable. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Position-tagged message, or {!duplicate_key}. *)

val duplicate_key : string
(** The {!Parse_error} message for an object that repeats a key.  The
    document is well-formed JSON, but which of the values a lookup
    would see is ambiguous, so the parser refuses it; serve answers it
    as a bad request rather than a parse error. *)

val parse : string -> t
(** Parse one JSON document; trailing non-whitespace is an error, and
    so is a key repeated within one object.
    @raise Parse_error on malformed input. *)

val render : t -> string
(** Compact single-line rendering (no spaces, keys in listed order).
    Non-finite numbers are not JSON; they render as the string
    sentinels ["inf"], ["-inf"], ["nan"] so clients can distinguish an
    unbounded value from an absent field. *)

val num_of_int : int -> t
val float_repr : float -> t
(** [Num x] when finite; the matching sentinel [Str] otherwise. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on absence or non-objects. *)

val to_float : t -> float option
(** [Num]s, plus the non-finite string sentinels. *)

val to_int : t -> int option
(** Integral [Num]s in the native int range [\[-2^62, 2^62)] only. *)

val to_string : t -> string option
val to_list : t -> t list option
