(* (flow, server) keys hashed and compared as two ints: the polymorphic
   table would run [caml_hash] and [compare_val] on every lookup, and
   the forward pass makes several per flow-hop. *)
module Hop_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((f, s) : t) (f', s') = Int.equal f f' && Int.equal s s'

  let hash ((f, s) : t) =
    let h = (f * 0x9e3779b97f4a7c1) + s in
    h lxor (h lsr 32)
end)

type env_table = Pwl.t Hop_tbl.t

let install_source table (f : Flow.t) =
  Hop_tbl.replace table (f.id, Flow.first_hop f) (Flow.source_curve f)

let empty ?(size_hint = 64) () : env_table = Hop_tbl.create (max 1 size_hint)

let create net =
  let table = empty () in
  List.iter (install_source table) (Network.flows net);
  table

let length = Hop_tbl.length

let get table ~flow ~server = Hop_tbl.find table (flow, server)
let set table ~flow ~server env = Hop_tbl.replace table (flow, server) env
let remove table ~flow ~server = Hop_tbl.remove table (flow, server)

let set_next table (f : Flow.t) ~after env =
  match Flow.next_hop f after with
  | Some s -> set table ~flow:f.id ~server:s env
  | None -> ()

let aggregate_input ?(options = Options.default) net table ~server ~flows =
  let env (f : Flow.t) = get table ~flow:f.id ~server in
  if not options.Options.link_cap then
    Pwl.sum (List.map env flows)
  else begin
    (* Group flows by upstream server; cap each transit group by the
       upstream link rate (output over any window of length I is at
       most C_upstream * I). *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (f : Flow.t) ->
        let key = Flow.prev_hop f server in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (env f :: cur))
      flows;
    (* Sum the groups in sorted-key order: hash-table iteration order
       is unspecified, and float addition is not associative, so
       folding in table order would make the result depend on it. *)
    let keys =
      Hashtbl.fold (fun key _ acc -> key :: acc) groups []
      |> List.sort_uniq (Option.compare Int.compare)
    in
    List.fold_left
      (fun acc key ->
        let group_env = Pwl.sum (Hashtbl.find groups key) in
        let capped =
          match key with
          | None -> group_env
          | Some upstream ->
              let rate = (Network.server net upstream).Server.rate in
              Pwl.min_pw (Pwl.affine ~y0:0. ~slope:rate) group_env
        in
        Pwl.add acc capped)
      Pwl.zero keys
  end

let total_rate flows = List.fold_left (fun acc f -> acc +. Flow.rate f) 0. flows
