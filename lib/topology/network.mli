(** A network of servers together with the flows that traverse it.

    The analyses in this library require {e feedforward} routing: the
    directed graph whose edges are the consecutive server pairs of all
    routes must be acyclic (the paper, Sec. 5, explicitly restricts the
    integrated method to cycle-free configurations).

    Servers are held in an array sorted by id, and every per-server
    index ({!flows_at}, {!successors}) is an array over the same
    positions.  A lookup by id finds the position at once when the ids
    are dense from 0, as every generator makes them, and by binary
    search otherwise. *)

type t

exception Cyclic
(** Raised by {!topological_order} when the routing graph has a cycle. *)

val make : servers:Server.t list -> flows:Flow.t list -> t
(** The bulk constructor: every index in one pass over all routes.
    @raise Invalid_argument on duplicate server or flow ids, or a flow
    whose route mentions an unknown server. *)

val add_flow : t -> Flow.t -> t
(** [add_flow net f] appends [f] to the flow list.  The result is a
    value no accessor can tell apart from
    [make ~servers:(servers net) ~flows:(flows net @ [ f ])]: same
    {!flows} and {!flows_at} order, same ascending deduplicated
    {!successors} and {!edges}, same {!size}.  [net] is not modified
    (the structure is persistent).

    Cost: only the index entries of [f]'s route servers change, in
    O(r * (k + log servers)) for a route of r servers carrying at most
    k flows each.  Beside that, a write copies pointers: the flow
    list's O(flows) append, and the two slot arrays of {!flows_at} and
    {!successors}, O(servers), so that [net] keeps reading as before.
    No other server's entry or edge is read, which is what lets an
    online admission engine pay for the affected cone rather than
    re-analyze the whole network.
    @raise Invalid_argument before building anything, with the message
    {!make} gives, on a duplicate flow id or a route through an
    unknown server. *)

val remove_flow : t -> int -> t
(** [remove_flow net id] drops flow [id]: equal, in the same sense as
    {!add_flow}, to {!make} over the flow list without it.  An edge
    [(a, b)] of its route goes only when no remaining flow at [a]
    continues to [b]; index entries the removal empties go too.

    Cost: as {!add_flow}, with the same two slot-array copies, except
    that the edge check walks the routes of the flows at each route
    server (O(r * k * l) for routes of at most l servers), and the flow
    list is filtered.
    @raise Invalid_argument for an unknown id. *)

val server : t -> int -> Server.t
(** O(1) for dense ids, O(log servers) otherwise.
    @raise Invalid_argument for an unknown id (a descriptive error
    rather than an ambient [Not_found], so a bad id surfaces with
    context even when the lookup happens on a [Par] worker). *)

val servers : t -> Server.t list
(** In increasing id order. *)

val flows : t -> Flow.t list

val flow : t -> int -> Flow.t
(** @raise Invalid_argument for an unknown id. *)

val flow_opt : t -> int -> Flow.t option
(** [None] for an unknown id: for callers that treat absence as data
    (the serve teardown path) rather than as a usage error. *)

val size : t -> int
(** Number of servers; O(1). *)

val flows_at : t -> int -> Flow.t list
(** All flows whose route contains the server, in flow-list order;
    [\[\]] for an unknown id.  Served from a slot-indexed array built in
    {!make}, so it costs one lookup — the analyses call it once per
    server per pass, and a list filter here used to dominate
    everything past a few hundred servers. *)

val edges : t -> (int * int) list
(** Deduplicated consecutive route pairs, the routing DAG,
    lexicographically sorted. *)

val successors : t -> int -> int list
(** Deduplicated routing-DAG successors of a server, ascending; [\[\]]
    for an unknown id. *)

val total_hop_count : t -> int
(** Sum of route lengths over all flows — the number of
    [(flow, server)] pairs a table-based propagation materializes. *)

val kahn : int -> (int -> (int -> unit) -> unit) -> int list
(** [kahn n iter_succ] orders the nodes [0 .. n-1], [iter_succ i visit]
    calling [visit] once on each successor of node [i], by Kahn's
    algorithm: sources first in ascending order, and the successors a
    node releases, sorted, ahead of the nodes ready before.  The
    servers (in id order) and Algorithm Integrated's contracted subnet
    graph share this rule.
    @raise Cyclic when the graph has a cycle. *)

val topological_order : ?servers:int list -> t -> int list
(** Every server id (including isolated ones), sources first, ties
    broken by ascending id ({!kahn}).  With [servers] (distinct ids),
    only those servers, ordered by the edges among them: an online
    engine orders the downstream cone of a change this way, reading
    only the successor lists of the cone's servers and allocating in
    proportion to the cone.
    @raise Cyclic when the routing graph (or the sub-graph) has a
    cycle. *)

val levels : t -> int list list
(** Antichain decomposition of the routing DAG: level 0 is the
    zero-indegree servers (plus isolated ones) and every edge goes from
    a strictly lower level to a strictly higher one, so no two servers
    of a level depend on each other — the unit of parallel sharding in
    the streaming propagation engine.  Levels are the longest-path
    layering, computed in one pass over the {!kahn} order; each level
    is sorted ascending.  O(V + E) plus the {!kahn} sorts.
    @raise Cyclic when the routing graph is not feedforward. *)

val widest_antichain : t -> int
(** Size of the largest {!levels} entry — the bound on how many servers
    are ever analyzed concurrently, and the yardstick for the streaming
    engine's peak frontier. *)

val is_feedforward : t -> bool

val utilization : t -> int -> float
(** Long-run input rate at a server divided by its service rate. *)

val max_utilization : t -> float
(** Maximum {!utilization} over all servers. *)

val stable : t -> bool
(** [max_utilization < 1] (within tolerance) — the condition for finite
    delay bounds everywhere. *)

val with_flows : t -> Flow.t list -> t
(** Same servers, different flow population (used by admission
    control). *)

val restrict : t -> flow_ids:int list -> t
(** Induced sub-network: exactly the given flows (unknown ids are
    ignored) and the servers their routes visit.  Used to sample a
    simulable slice of a generated massive topology for
    cross-validation — note the sample drops the cross traffic, so its
    bounds are for the sub-network, not the original. *)

val pp : Format.formatter -> t -> unit
