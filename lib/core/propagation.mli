(** Shared bookkeeping for topological-order analyses.

    Every end-to-end method in this library sweeps the servers (or
    subnetworks) in topological order, maintaining for each flow the
    envelope of its traffic {e at the input} of each server on its
    route.  This module holds that table; the aggregate input a server
    reads from it is {!Forward.aggregate}. *)

module Hop_tbl : Hashtbl.S with type key = int * int
(** Tables keyed by a pair of ids such as [(flow, server)], hashed and
    compared as two ints.  The envelope table is one; {!Forward} keeps
    its local bounds and poison marks in two more, and {!Integrated} its
    per-subnet delays. *)

type hop_store
(** The per-hop values a finished analysis computes as they are read,
    behind a lock of its own: domains that share a memoized analysis
    may read through it at once.  Each flow read so far holds one float
    per hop of its route. *)

val hop_store : unit -> hop_store

val stored : hop_store -> Flow.t -> int -> (unit -> float) -> float
(** [stored s f hop compute] is the value kept for the flow's hop at
    position [hop] of its route ({!Flow.hop_index}), or [compute ()],
    kept.  [compute] runs outside the lock, so two readers of a new hop
    may both run it; the first to finish stores its value, and both
    must compute the same bits.  Nothing is kept when [compute] raises,
    and a [nan] is computed again on every read. *)

type env_table

val create : Network.t -> env_table
(** A fresh table with each flow's source envelope installed at its
    first hop. *)

val empty : ?size_hint:int -> unit -> env_table
(** A fresh table with {e nothing} installed.  The streaming engine
    ({!Propagation_stream}) starts here and installs each source curve
    only when its first hop's antichain level begins, so the resident
    set never jumps to one-entry-per-flow up front. *)

val length : env_table -> int
(** Number of resident [(flow, server)] entries — the live frontier
    size, in the streaming engine's vocabulary. *)

val get : env_table -> flow:int -> server:int -> Pwl.t
(** Input envelope of a flow at a server.  @raise Not_found when the
    upstream analysis has not reached this hop yet (a bug in the
    caller's traversal order). *)

val set : env_table -> flow:int -> server:int -> Pwl.t -> unit

val remove : env_table -> flow:int -> server:int -> unit
(** Forget one entry (delta re-analysis hook: a torn-down flow's hops
    are dropped before the affected cone is recomputed). *)

val install_source : env_table -> Flow.t -> unit
(** Install a flow's source envelope at its first hop — what {!create}
    does for every flow; exposed so an online engine can splice a newly
    admitted flow into an existing table. *)

val set_next : env_table -> Flow.t -> after:int -> Pwl.t -> unit
(** Install a flow's envelope at the hop following [after] on its
    route; no-op when [after] is the last hop. *)

val total_rate : Flow.t list -> float
(** Sum of long-run source rates. *)
