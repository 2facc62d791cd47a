(** Incremental (U, n) tandem sweeps.

    The paper's evaluation grids (Figures 4-6) analyze the same tandem
    family at every hop count; because the family is prefix-closed and
    propagation is feedforward, one analysis of the largest tandem per
    load determines the bounds of every prefix bit-for-bit.  This
    module serves a whole grid from those shared passes.  It keeps the
    Decomposed and Integrated analyses of each largest tandem in an
    {!Incremental} table keyed by the bit patterns of (sigma, peak,
    load) and the largest hop count, so a repeated grid, or another
    grid on the same largest tandem, runs no new pass.  Every cell has
    the bits of {!Engine.compare_all} on its own tandem (tested). *)

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
    [1.]) are passed to {!Tandem.make}.  An odd hop count pairs
    differently from the largest tandem, so its cells run one
    Integrated analysis of their own. *)
