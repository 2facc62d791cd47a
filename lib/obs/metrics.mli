(** Process-global registry of named counters and value distributions.

    Instrumented modules create their counters once at module
    initialization ([let c = Metrics.counter "pwl.conv.calls"]) and
    record through {!Prof} on the hot path; recording is a single field
    update, O(1) and allocation-free.  The registry itself (name
    lookup) is only touched at creation and rendering time.

    Names are dotted paths by convention: [pwl.conv.calls],
    [engine.flow_delay.ns], [sim.heap.depth].  Counters are monotone
    between {!reset}s; distributions keep count/sum/min/max (enough for
    mean and extremes without storing samples). *)

type counter
type dist
type peak

val counter : string -> counter
(** Find-or-create the counter with this name.  The same name always
    returns the same counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0] (counters are monotone); negative
    increments raise [Invalid_argument]. *)

val value : counter -> int

val dist : string -> dist
(** Find-or-create the distribution with this name. *)

val observe : dist -> float -> unit

type dist_stats = {
  count : int;
  sum : float;
  mean : float;
  dmin : float;  (** [infinity] when empty *)
  dmax : float;  (** [neg_infinity] when empty *)
}

val dist_stats : dist -> dist_stats

val peak : string -> peak
(** Find-or-create the high-watermark gauge with this name.  A peak
    keeps the largest value ever observed since the last {!reset}
    ([pwl.segments.max] — the peak live-curve size — is one). *)

val observe_peak : peak -> int -> unit
(** Raise the recorded maximum to [v] if larger; no-op otherwise. *)

val reset : unit -> unit
(** Zero every counter and empty every distribution.  Registered names
    survive (the counter/dist values held by instrumented modules stay
    valid). *)

type snapshot = {
  counters : (string * int) list;      (** sorted by name *)
  dists : (string * dist_stats) list;  (** sorted by name *)
  peaks : (string * int) list;         (** sorted by name *)
}

val snapshot : unit -> snapshot

val to_table : unit -> Table.t
(** One row per metric, sorted by name: columns [metric], [kind],
    [count], [sum], [mean], [min], [max].  Counters fill [count] only;
    peaks fill [max] only.  Rows with zero count (zero value, for
    peaks) are omitted. *)
