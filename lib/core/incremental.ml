(* Cross-call memoization of whole-network analyses (the "recompute
   nothing twice" half of the incremental sweep engine; the prefix-reuse
   half lives in Sweep_engine).  Each analysis module keeps a private
   table and keys it with [net_key]: a structural fingerprint of
   everything its result depends on — server configs, flow configs
   (source curves by uid, interned on demand, see {!Pwl.uid}),
   options, pairing strategy.  Two structurally identical networks
   therefore share one analysis, whether they come from the same sweep,
   a different figure, or a different experiment in the same process.

   Correctness does not depend on the tables: a hit returns an
   immutable analysis value that a miss would have recomputed
   bit-identically (analyses are deterministic functions of the key),
   and source curves are keyed by uid, so uid equality implies
   bit-identical curves.  After an intern reset the uids change and
   lookups miss — a harmless recompute, never a wrong hit.

   Tables are bounded like the [Minplus] cache (wholesale reset past a
   cap) and guarded by one lock for netcalc.par workers. *)

let c_reuse = Metrics.counter "incremental.reuse"
let c_recompute = Metrics.counter "incremental.recompute"
let lock = Obs_sync.create ()
let on = ref true
let cap = 512
let clearers : (unit -> unit) list ref = ref []
let sizers : (unit -> int) list ref = ref []

type key = string

let net_key ?(options = Options.default) ?strategy net =
  let servers =
    List.map
      (fun (s : Server.t) -> (s.id, s.name, s.rate, s.discipline))
      (Network.servers net)
  in
  let flows =
    List.map
      (fun (f : Flow.t) ->
        ( f.id,
          f.name,
          f.route,
          f.deadline,
          f.priority,
          f.weight,
          f.buffer,
          Pwl.uid (Flow.source_curve f) ))
      (Network.flows net)
  in
  (* Marshalling a pure immediate structure is deterministic within a
     process, which is all a memo key needs; strings hash over their
     whole contents, unlike the depth-limited generic hash on a deep
     tuple. *)
  Marshal.to_string
    (servers, flows, options, (strategy : Pairing.strategy option))
    []

type 'a table = { tbl : (key, 'a) Hashtbl.t }

let table () =
  let tbl = Hashtbl.create 64 in
  Obs_sync.with_lock lock (fun () ->
      clearers := (fun () -> Hashtbl.reset tbl) :: !clearers;
      sizers := (fun () -> Hashtbl.length tbl) :: !sizers);
  { tbl }

let note_reuse () = Metrics.incr c_reuse

let memoize t key compute =
  if not (Obs_sync.with_lock lock (fun () -> !on)) then compute ()
  else
    match Obs_sync.with_lock lock (fun () -> Hashtbl.find_opt t.tbl key) with
    | Some v ->
        Metrics.incr c_reuse;
        v
    | None ->
        Metrics.incr c_recompute;
        (* Compute outside the lock; a concurrent duplicate of the same
           key is harmless (deterministic analyses, identical values). *)
        let v = compute () in
        Obs_sync.with_lock lock (fun () ->
            if Hashtbl.length t.tbl >= cap then Hashtbl.reset t.tbl;
            if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v);
        v

let enabled () = Obs_sync.with_lock lock (fun () -> !on)

(* [clearers] is read under the lock in both paths below (a shared
   helper reading it outside any visible [with_lock] is exactly what
   netcalc-lint's race-global rule rejects).  The registered closures
   only touch their own table, so running them while holding [lock]
   cannot re-enter it. *)
let clear () =
  Obs_sync.with_lock lock (fun () -> List.iter (fun f -> f ()) !clearers)

let set_enabled b =
  Obs_sync.with_lock lock (fun () ->
      if !on <> b then begin
        on := b;
        List.iter (fun f -> f ()) !clearers
      end)

let with_enabled b f =
  let prev = enabled () in
  if prev = b then f ()
  else begin
    (* set_enabled clears the tables on an actual toggle, so neither
       the bracketed run nor the restored state can see stale entries
       from the other regime. *)
    set_enabled b;
    Fun.protect ~finally:(fun () -> set_enabled prev) f
  end

type stats = { reuse : int; recompute : int; entries : int }

let stats () =
  let entries =
    Obs_sync.with_lock lock (fun () ->
        List.fold_left (fun acc f -> acc + f ()) 0 !sizers)
  in
  { reuse = Metrics.value c_reuse;
    recompute = Metrics.value c_recompute;
    entries }
