(* cache-key (bad): the memoized compute reads Fixture_state.knob
   (through a cross-module call), but the key is derived from the
   network alone — a later change to the knob serves a stale hit. *)

let memo : (int, float) Incremental.table = Incremental.table ()

let analysis net =
  Fixture_state.scale (float_of_int (List.length (Network.servers net)))

let cached net =
  Incremental.memoize memo (List.length (Network.servers net)) (fun () -> analysis net)
