(* The scenario corpus: one name per generator family, plus sizing
   heuristics that turn a target server count into concrete params.
   This is the single entry point the CLI (netcalc scale / netcalc
   dot --family), the scale benchmark and the determinism tests share,
   so a (family, target_servers, seed) triple names the same network
   everywhere. *)

type family = Leaf_spine | Fat_tree | Edge_cloud | Heavytail

let all = [ Leaf_spine; Fat_tree; Edge_cloud; Heavytail ]

let to_string = function
  | Leaf_spine -> "leaf-spine"
  | Fat_tree -> "fat-tree"
  | Edge_cloud -> "edge-cloud"
  | Heavytail -> "heavytail"

(* Sizing: hit the target server count as closely as the family's
   structure allows, with a flow population proportional to the
   network so per-server fan-in stays moderate at any scale. *)

let leaf_spine_params ~target_servers ~seed =
  let spines = max 1 (target_servers / 10) in
  let leaves = max 1 ((target_servers - spines) / 2) in
  {
    Leaf_spine.default with
    leaves;
    spines;
    num_flows = max 8 (2 * leaves);
    seed;
  }

let fat_tree_params ~target_servers ~seed =
  (* 2k^2 + k^2/4 = 9k^2/4 servers: smallest even k reaching the
     target. *)
  let k =
    let exact = sqrt (4. *. float_of_int target_servers /. 9.) in
    let k = int_of_float (Float.ceil exact) in
    max 2 (if k mod 2 = 0 then k else k + 1)
  in
  { Fat_tree.default with k; num_flows = max 8 target_servers; seed }

let edge_cloud_params ~target_servers ~seed =
  let p = { Edge_cloud.default with tiers = 6; per_tier = 4 } in
  let block = Edge_cloud.site_block p in
  let cloud = p.cloud_tiers * p.cloud_per_tier in
  let sites = max 1 ((target_servers - cloud + block - 1) / block) in
  { p with sites; num_flows = max 8 (target_servers / 2); seed }

let heavytail_params ~target_servers ~seed =
  {
    Heavytail.default with
    num_servers = max 2 target_servers;
    num_flows = max 8 target_servers;
    max_route = 12;
    seed;
  }

let generate ~family ~target_servers ~seed =
  match family with
  | Leaf_spine -> Leaf_spine.generate (leaf_spine_params ~target_servers ~seed)
  | Fat_tree -> Fat_tree.generate (fat_tree_params ~target_servers ~seed)
  | Edge_cloud ->
      (Edge_cloud.generate (edge_cloud_params ~target_servers ~seed)).Edge_cloud.net
  | Heavytail -> Heavytail.generate (heavytail_params ~target_servers ~seed)

let generate_unpeaked ~family ~target_servers ~seed =
  (* Same routes and rates as [generate] (peak is applied after all
     random draws), but with unpeaked sources — the form the packet
     simulator's conformance checker accepts. *)
  match family with
  | Leaf_spine ->
      Leaf_spine.generate
        { (leaf_spine_params ~target_servers ~seed) with peak = infinity }
  | Fat_tree ->
      Fat_tree.generate
        { (fat_tree_params ~target_servers ~seed) with peak = infinity }
  | Edge_cloud ->
      (Edge_cloud.generate
         { (edge_cloud_params ~target_servers ~seed) with peak = infinity })
        .Edge_cloud.net
  | Heavytail ->
      Heavytail.generate
        { (heavytail_params ~target_servers ~seed) with peak = infinity }
