(** Nestable timing spans with a bounded ring buffer and a Chrome
    [trace_event] exporter.

    Spans nest on an explicit stack: {!with_span} pushes, {!end_span}
    pops the innermost open span and records a completed event, so
    closing is LIFO by construction; {!with_span} closes on exceptions
    too.  Completed events land in a ring buffer (newest kept, oldest
    dropped once {!set_capacity}'s bound is exceeded) for export, and
    in an exact per-name aggregate (calls / total / max duration) that
    is immune to ring drops.

    {!to_chrome_json} renders the buffer in the Chrome trace-event
    format (ph = "X" complete events, microsecond timestamps), which
    [chrome://tracing] and Perfetto open directly.

    Concurrency: the open-span stack (and hence {!depth} and the
    recorded nesting depth) is {e per domain}, so netcalc.par workers
    each keep their own well-nested spans; the completed-event ring
    and the per-name aggregates are shared and lock-guarded, so
    {!events}, {!aggregates} and {!summary_table} see every domain's
    spans.  {!clear} empties only the calling domain's open-span
    stack (call it between parallel regions, not inside one). *)

type event = {
  name : string;
  ts_us : float;   (** start, microseconds since process start *)
  dur_us : float;
  depth : int;     (** nesting depth at the time the span was open *)
}

val now_us : unit -> float
(** Elapsed {e wall-clock} microseconds since process start — the
    clock every span timestamp uses.  Exposed so other timing sites
    (e.g. [Engine.flow_delay], the bench harness) share one clock:
    unlike [Sys.time], which counts CPU seconds of the whole process
    and therefore over-reports by ~[jobs]x once netcalc.par domains
    run concurrently, this measures real latency. *)

val now_s : unit -> float
(** [now_us () /. 1e6], for callers reporting seconds. *)

val end_span : unit -> unit
(** @raise Invalid_argument when no span is open. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()]; the span is closed even when [f]
    raises. *)

val depth : unit -> int
(** Number of currently open spans. *)

val events : unit -> event list
(** Completed events still in the ring, in completion order. *)

val dropped : unit -> int
(** Events evicted from the ring since the last {!clear}. *)

val set_capacity : int -> unit
(** Resize the ring (clears it).  @raise Invalid_argument on [n <= 0]. *)

val clear : unit -> unit
(** Empty the ring, the aggregates and the open-span stack. *)

type agg = { calls : int; total_us : float; max_us : float }

val aggregates : unit -> (string * agg) list
(** Exact per-name totals over all completed spans, sorted by name. *)

val summary_table : unit -> Table.t
(** Per-name [span | calls | total ms | mean ms | max ms] rows. *)

val to_chrome_json : unit -> string
(** The ring as [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val save_chrome_json : string -> unit
(** Write {!to_chrome_json} to a file. *)
