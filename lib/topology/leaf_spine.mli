(** Two-tier leaf-spine datacenter fabric (seeded, deterministic).

    Each leaf switch is split into an uplink and a downlink server and
    every flow takes a 3-hop route [leaf_up -> spine -> leaf_down], so
    the network is feedforward by construction with exactly three
    antichain levels regardless of width — the go-to family for
    pushing the streaming engine to 10^5+ servers. *)

type params = {
  leaves : int;        (** leaf switches; contributes two servers each *)
  spines : int;        (** spine switches *)
  num_flows : int;
  utilization : float; (** target max utilization, in (0, 1) *)
  max_burst : float;
  peak : float;        (** source peak rate; [infinity] for none *)
  seed : int;
}

val default : params
(** 8 leaves x 4 spines (20 servers), 32 flows, utilization 0.6,
    seed 42. *)

val generate : params -> Network.t
(** All servers FIFO; spine rate is [leaves/spines] (never below 1) so
    the fabric is not an artificial bottleneck; source rates scaled to
    the target utilization ({!Genutil.scale_to_utilization}). *)
