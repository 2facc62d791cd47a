(** Options shared by the analysis engines. *)

type t = {
  link_cap : bool;
      (** When true, the aggregate of flows arriving at a server from
          the same upstream server is additionally capped by that
          upstream link's rate ([C * I] over any window) — the
          sharpening ablation of DESIGN.md §3.3.  Off by default: the
          classic algorithms of the paper do not use it. *)
  sp_blocking : float;
      (** Non-preemption blocking term for static-priority servers:
          the size of the largest lower-priority packet that can be in
          service when an urgent packet arrives.  [0.] (default)
          models the fluid preemptive server; set it to the packet
          size when validating against the packetized simulator. *)
}

val default : t
(** [{ link_cap = false; sp_blocking = 0. }] *)

val sharpened : t
(** [default] with [link_cap = true]. *)

val with_blocking : float -> t -> t
