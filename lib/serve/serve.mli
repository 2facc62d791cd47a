(** The [netcalc serve] line protocol and session loops.

    A server holds one engine — delta re-analysis ({!Delta_engine}) or
    full re-analysis through {!Admission.decide_one} — and processes a
    stream of newline-delimited JSON requests:

    {v
    {"op":"admit","flow":{"id":7,"sigma":1,"rho":0.1,"route":[0,1],
                          "deadline":20,"peak":1}}
    {"op":"teardown","flow":7}
    {"op":"query","flow":0}
    {"op":"stats"}
    v}

    Every request gets exactly one single-line JSON response with a
    leading ["ok"] field.  Successful admits and teardowns report the
    operation's [cone_nodes] / [reused_nodes] (a full-engine operation
    re-analyzes every server, so [reused_nodes] is 0).  Errors are
    in-band: [{"ok":false,"error":...}] with [error] one of
    [parse_error], [bad_request], [unknown_op], [unknown_flow],
    [duplicate_flow], or [rejected] (admission refused; a [reason]
    field then carries [no_deadline], [cyclic_route], or
    [deadline_violated] with the violating flow's id, bound and
    deadline).

    Responses have a fixed key order and deterministic number
    formatting ({!Sjson.render}), so protocol transcripts can be pinned
    byte-for-byte in tests. *)

type mode =
  | Delta  (** incremental cone re-analysis (decomposed method) *)
  | Full of Engine.method_
      (** from-scratch re-analysis per admit; the analysis of the
          current population is kept, for queries, until a teardown
          changes the population *)

type t

val create :
  ?options:Options.t ->
  mode:mode ->
  servers:Server.t list ->
  flows:Flow.t list ->
  unit ->
  t
(** Analyze the initial population and stand the service up.
    @raise Network.Cyclic / [Invalid_argument] as {!Network.make}. *)

val handle_line : t -> string -> string
(** Process one request line, return one response line (no trailing
    newline).  Never raises: malformed input becomes an in-band
    [{"ok":false,...}] response, and any unexpected exception an
    [{"ok":false,"error":"internal_error",...}] one.  The typed
    linter enforces totality via the [@@lint.exn_barrier] attribute
    on the implementation. *)

val session : t -> next:(unit -> string option) -> emit:(string -> unit) -> unit
(** Pull request lines from [next] until it returns [None], emitting
    one response per non-blank line. *)

val run_channels : t -> in_channel -> out_channel -> unit
(** {!session} over channels, flushing after every response — the
    [--stdin] transport and the per-connection socket loop. *)

val listen_unix : ?clients:int -> t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (unlinking any stale one) and
    serve connections sequentially; [clients] (default unbounded) stops
    after that many connections, for tests. *)

val listen_tcp : ?clients:int -> t -> port:int -> unit
(** Same over TCP on the loopback interface. *)
