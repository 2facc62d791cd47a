(* Cross-call memoization for the incremental sweep engine (the
   "recompute nothing twice" half; the prefix-reuse half lives in
   Sweep_engine, the table's one user).  A table maps a key to a value
   the compute closure derives from the key alone, so a hit returns
   what a miss would have recomputed, bit for bit: the caller's key
   must cover every input of its compute (netcalc-lint's cache-key rule
   checks the mutable ones).

   Tables are bounded (wholesale reset past a cap) and guarded by one
   lock for netcalc.par workers. *)

let c_reuse = Metrics.counter "incremental.reuse"
let c_recompute = Metrics.counter "incremental.recompute"
let lock = Obs_sync.create ()
let cap = 512

type ('k, 'v) table = ('k, 'v) Hashtbl.t

let table () = Hashtbl.create 64
let note_reuse () = Metrics.incr c_reuse

let memoize t key compute =
  match Obs_sync.with_lock lock (fun () -> Hashtbl.find_opt t key) with
  | Some v ->
      Metrics.incr c_reuse;
      v
  | None ->
      Metrics.incr c_recompute;
      (* Compute outside the lock; a concurrent duplicate of the same
         key is harmless (the key determines the value). *)
      let v = compute () in
      Obs_sync.with_lock lock (fun () ->
          if Hashtbl.length t >= cap then Hashtbl.reset t;
          if not (Hashtbl.mem t key) then Hashtbl.add t key v);
      v
