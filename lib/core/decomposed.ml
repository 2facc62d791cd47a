type t = Forward.t

let analyze_raw ~options net =
  Prof.span "decomposed.analyze" @@ fun () ->
  let t = Forward.create ~options net (Propagation.create net) in
  Forward.run t (Network.topological_order net);
  t

(* The sweep-engine memo: one entry per structurally distinct
   (network, options).  The result is only mutated during
   [analyze_raw], so sharing it between callers is safe. *)
let memo : t Incremental.table = Incremental.table ()

let analyze ?(options = Options.default) net =
  Incremental.memoize memo
    (Incremental.net_key ~options net)
    (fun () -> analyze_raw ~options net)

let network = Forward.network
let options = Forward.options
let local_delay = Forward.local_delay
let flow_delay = Forward.flow_delay
let all_flow_delays = Forward.all_flow_delays
let envelope_at = Forward.envelope_at
let server_delay = Forward.server_delay
let server_backlog = Forward.server_backlog
let server_flow_backlogs = Forward.server_flow_backlogs
let local_backlog = Forward.local_backlog
let flow_backlog = Forward.flow_backlog
let server_busy_period = Forward.server_busy_period
