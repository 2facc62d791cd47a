(** Incremental (U, n) tandem sweeps.

    The paper's evaluation grids (Figures 4-6) analyze the same tandem
    family at every hop count; because the family is prefix-closed and
    propagation is feedforward, one analysis of the largest tandem per
    load determines the bounds of every prefix bit-for-bit.  This
    module serves a whole grid from those shared passes (plus the
    {!Incremental} memo across figures), falling back to one scratch
    {!Engine.compare_all} per cell when the engine is disabled —
    producing byte-identical tables either way. *)

val tandem_grid :
  ?sigma:float ->
  ?peak:float ->
  hops:int list ->
  loads:float list ->
  unit ->
  Engine.comparison list
(** [tandem_grid ~hops ~loads ()] is one {!Engine.comparison} of
    Connection 0 per grid cell, in the order
    [List.concat_map (fun u -> List.map (fun n -> (u, n)) hops) loads]
    (the row-major order the bench tables print in).  The pairing
    strategy is the paper's [Pairing.Along_route 0], the options are
    {!Options.default}, and the FIFO-theta extension is not run: its
    cells are [nan], as in the figures.  [sigma] and [peak] (defaults
    [1.]) are passed to {!Tandem.make}. *)
