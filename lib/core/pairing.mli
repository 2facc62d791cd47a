(** Partitioning a feedforward network into subnetworks of at most two
    servers (Algorithm Integrated, Steps 1-2 of paper Fig. 2).

    A pair [(u, v)] is admissible when some flow traverses [u] then [v]
    consecutively and contracting the pair keeps the subnetwork graph
    acyclic (otherwise the topological traversal of Step 2 would be
    impossible — this happens exactly when an alternative path
    [u ~> v] exists through other subnetworks).  The strategies test
    this with one search per candidate: the contraction of the pairs
    chosen so far is acyclic, so adding [(u, v)] closes a cycle exactly
    when [v] is reachable in it from another successor of [u]. *)

type subnet = Single of int | Pair of int * int

type t = subnet list
(** Covers every server exactly once, listed in a valid topological
    order of the contracted graph. *)

type strategy =
  | Along_route of int
      (** Pair consecutive servers of the given flow's route, front to
          back (the paper's choice: conn0's route in the tandem).  An
          inadmissible pair is skipped: its first server stays single
          in its route position.  Remaining servers become
          singletons. *)
  | Greedy
      (** Scan servers in topological order and pair each unpaired
          server with its first admissible unpaired direct successor,
          the ones sharing the most transit flows first (ties by
          ascending id). *)
  | Singletons
      (** No pairing: Algorithm Integrated degenerates to Algorithm
          Decomposed (the ablation baseline). *)

val build : Network.t -> strategy -> t
(** @raise Network.Cyclic on non-feedforward input.
    @raise Invalid_argument when [Along_route] names an unknown flow. *)

val validate : Network.t -> t -> unit
(** Check cover, pair admissibility and topological order of an
    externally supplied pairing.  @raise Invalid_argument on
    violation. *)

val servers_of : subnet -> int list
val pp : Format.formatter -> t -> unit
