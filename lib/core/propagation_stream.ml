(* Streaming frontier propagation — the memory-bounded scale-out path.

   The table-based engines (Decomposed & friends) materialize the full
   (flow, server) -> envelope table: total_hop_count curves stay
   resident until the analysis object dies.  That is fine for tandems
   of a few hundred servers and fatal at 10^5-10^6: the envelopes are
   the memory.

   This driver exploits the one-shot consumption structure of the
   forward pass instead.  The envelope of flow f at the input of
   server s has exactly one consumer: the local analysis of s itself
   (aggregate + per-flow delay).  So the pass can run level by level
   over the antichain decomposition of the routing DAG
   (Network.levels), install each flow's source curve only when its
   first hop's level begins, and evict (f, s) the moment s has been
   analyzed.  What stays resident — the live frontier — is only the
   envelopes crossing the current antichain boundary, bounded by the
   flow population of two adjacent levels, never by the topology size.

   Within a level no server depends on another (every edge crosses
   levels strictly upward), so each server's Forward.compute runs on
   the netcalc.par domain pool: it only reads the shared state
   (envelopes and poison marks written while applying strictly
   earlier levels).  Every write happens in Forward.apply, run
   sequentially in ascending server order.  The step is Decomposed's
   own and the apply order is fixed, so the results are bit-identical
   to the table-based path at any jobs count (pinned by tests).

   Frontier accounting is published as netcalc.obs metrics:
   [propagation.frontier.live] (resident-entry count observed at each
   level boundary), [propagation.frontier.peak] (high watermark) and
   [propagation.frontier.evicted] (entries dropped). *)

type frontier_stats = {
  peak_live : int;
  evicted : int;
  total_pairs : int;
  widest_antichain : int;
  levels : int;
}

type t = { fw : Forward.t; stats : frontier_stats }

let frontier_stats t = t.stats
let flow_delay t = Forward.flow_delay t.fw
let all_flow_delays t = Forward.all_flow_delays t.fw

let c_evicted = Metrics.counter "propagation.frontier.evicted"
let d_live = Metrics.dist "propagation.frontier.live"
let p_peak = Metrics.peak "propagation.frontier.peak"

let analyze ?(options = Options.default) ?jobs net =
  let levels = Network.levels net in
  let envs = Propagation.empty ~size_hint:1024 () in
  let fw = Forward.create ~size_hint:1024 ~options net envs in
  (* Group the source installs by the level of each flow's first hop,
     so a curve only becomes resident when its consumer's antichain is
     next in line. *)
  let level_of = Hashtbl.create (max 16 (Network.size net)) in
  List.iteri
    (fun i sids -> List.iter (fun sid -> Hashtbl.replace level_of sid i) sids)
    levels;
  let n_levels = List.length levels in
  let installs = Array.make (max 1 n_levels) [] in
  List.iter
    (fun (f : Flow.t) ->
      let l = Hashtbl.find level_of (Flow.first_hop f) in
      installs.(l) <- f :: installs.(l))
    (Network.flows net);
  let peak_live = ref 0 in
  let evicted = ref 0 in
  let observe_live () =
    let live = Propagation.length envs in
    if live > !peak_live then peak_live := live;
    if Prof.enabled () then begin
      Metrics.observe d_live (float_of_int live);
      Metrics.observe_peak p_peak live
    end
  in
  List.iteri
    (fun li sids ->
      List.iter (Propagation.install_source envs) (List.rev installs.(li));
      observe_live ();
      (* Par.map returns results in list order whatever the schedule,
         and [sids] is sorted, so the apply order is deterministic. *)
      let steps = Par.map ?jobs (Forward.compute fw) sids in
      List.iter (Forward.apply fw) steps;
      observe_live ();
      (* Every (f, sid) of this level has been consumed. *)
      List.iter (fun s -> evicted := !evicted + Forward.evict fw s) steps)
    levels;
  if Prof.enabled () then Metrics.add c_evicted !evicted;
  let stats =
    {
      peak_live = !peak_live;
      evicted = !evicted;
      total_pairs = Network.total_hop_count net;
      widest_antichain =
        List.fold_left (fun acc l -> max acc (List.length l)) 0 levels;
      levels = n_levels;
    }
  in
  { fw; stats }
