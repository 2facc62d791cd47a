(** Human-readable analysis reports.

    Render a network analysis the way an operator would want to read
    it: a network summary, per-server provisioning data (utilization,
    local delay, buffer requirement, busy period) and per-flow
    end-to-end results with the per-hop (or per-subnetwork)
    breakdown. *)

val decomposed : Decomposed.t -> string
(** Full report of a decomposition analysis. *)

val integrated : Integrated.t -> string
(** Full report of an integrated analysis, with the pairing and
    per-subnetwork delay contributions. *)
