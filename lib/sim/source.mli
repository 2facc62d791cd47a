(** Source emission models.

    Every model conforms to the flow's token-bucket constraint
    [(sigma, rho, peak)]; the interesting question for bound validation
    is how adversarial the conforming pattern is. *)

type model =
  | Greedy of { start : float }
      (** Send as early as the bucket allows from [start] on: the
          initial burst goes out back-to-back (at peak rate), then
          packets at the sustained rate.  This is the worst-case
          pattern for an isolated token bucket. *)
  | Periodic of { start : float; interval : float }
      (** One packet every [interval] from [start] on, additionally
          clipped to bucket conformance. *)
  | On_off of { start : float; on : float; off : float }
      (** Greedy during [on]-long windows separated by [off]-long
          silences (bucket refills during silences, re-creating
          bursts). *)

val check_packet_size : sigma:float -> rho:float -> float -> unit
(** [check_packet_size ~sigma ~rho l] accepts the packets of size [l] a
    [(sigma, rho)] token bucket can emit.
    @raise Invalid_argument when [l <= 0] or [l] exceeds [sigma]. *)

val emission_times :
  model ->
  sigma:float ->
  rho:float ->
  peak:float ->
  packet_size:float ->
  horizon:float ->
  float list
(** Times at which a packet of [packet_size] is emitted, up to
    [horizon].  The cumulative traffic is guaranteed to satisfy
    [sent (s, t] <= min (peak (t - s), sigma + rho (t - s))] for all
    windows — asserted in tests. *)
