(* cache-key (clean): the same knob-dependent compute, but the knob
   is folded into the key.  The key is a let-bound local, so the
   checker must resolve the local back to its right-hand side before
   judging coverage. *)

let memo : (float * int, float) Incremental.table = Incremental.table ()

let analysis net =
  Fixture_state.scale (float_of_int (List.length (Network.servers net)))

let cached net =
  let key = (!Fixture_state.knob, List.length (Network.servers net)) in
  Incremental.memoize memo key (fun () -> analysis net)
