(** Parameter sweeps for experiments. *)

val steps : lo:float -> hi:float -> step:float -> float list
(** Points [lo, lo+step, ...] up to and including [hi] (within tolerance).
    Generated by integer index (no float accumulation drift) and snapped
    to 12 significant decimal digits, so decimal grids come out exact:
    [steps ~lo:0.1 ~hi:0.9 ~step:0.1] is precisely
    [\[0.1; 0.2; 0.3; ...; 0.9\]].  Requires [step > 0.];
    empty when [hi < lo - step/2]. *)
