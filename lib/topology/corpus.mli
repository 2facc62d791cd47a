(** The scenario corpus: named generator families with shared sizing.

    A [(family, target_servers, seed)] triple names the same network
    in the CLI, the scale benchmark and the tests — the corpus is the
    single place that maps a target server count to each family's
    concrete parameters. *)

type family = Leaf_spine | Fat_tree | Edge_cloud | Heavytail

val all : family list

val to_string : family -> string

val generate : family:family -> target_servers:int -> seed:int -> Network.t
(** A network of roughly [target_servers] servers (exactly on families
    whose structure permits it, the nearest admissible size
    otherwise), with a flow population proportional to the network. *)

val generate_unpeaked :
  family:family -> target_servers:int -> seed:int -> Network.t
(** Same routes and rates as {!generate} — peak limiting is applied
    after all random draws — but with unpeaked sources, the form the
    packet simulator's conformance checker accepts
    ({!Validate.check}). *)
