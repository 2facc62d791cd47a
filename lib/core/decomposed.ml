(* The pass, and each per-hop backlog once it has been read: nothing
   changes the pass after [analyze_raw], so no stored value goes
   stale. *)
type t = { fw : Forward.t; backlogs : Propagation.hop_store }

let analyze_raw ~options net =
  Prof.span "decomposed.analyze" @@ fun () ->
  let fw = Forward.create ~options net (Propagation.create net) in
  Forward.run fw (Network.topological_order net);
  { fw; backlogs = Propagation.hop_store () }

(* The sweep-engine memo: one entry per structurally distinct
   (network, options).  The pass is only mutated during [analyze_raw]
   and the backlog store is locked, so sharing the result between
   callers is safe. *)
let memo : t Incremental.table = Incremental.table ()

let analyze ?(options = Options.default) net =
  Incremental.memoize memo
    (Incremental.net_key ~options net)
    (fun () -> analyze_raw ~options net)

let network t = Forward.network t.fw
let options t = Forward.options t.fw
let local_delay t = Forward.local_delay t.fw
let flow_delay t = Forward.flow_delay t.fw
let all_flow_delays t = Forward.all_flow_delays t.fw
let envelope_at t = Forward.envelope_at t.fw
let server_delay t = Forward.server_delay t.fw
let server_backlog t = Forward.server_backlog t.fw
let server_flow_backlogs t = Forward.server_flow_backlogs t.fw
let server_busy_period t = Forward.server_busy_period t.fw

let local_backlog t ~flow ~server =
  let split () = Forward.local_backlog t.fw ~flow ~server in
  match Network.flow_opt (network t) flow with
  | None -> split ()
  | Some f -> (
      match Flow.hop_index f server with
      | Some i -> Propagation.stored t.backlogs f i split
      | None -> split ())

let flow_backlog t id = Forward.route_max (network t) id (local_backlog t)
