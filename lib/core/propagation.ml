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

(* For each flow read so far, one value per hop of its route; [nan]
   where none is kept yet. *)
type hop_store = {
  lock : Obs_sync.mutex;
  values : (int, float array) Hashtbl.t;
}

let hop_store () = { lock = Obs_sync.create (); values = Hashtbl.create 16 }

let stored s (f : Flow.t) hop compute =
  let kept =
    Obs_sync.with_lock s.lock (fun () ->
        match Hashtbl.find_opt s.values f.id with
        | Some values -> values.(hop)
        | None -> nan)
  in
  if not (Float.is_nan kept) then kept
  else begin
    (* Computed outside the lock: a reader racing on the same hop
       computes the same bits, and the first to store them wins. *)
    let v = compute () in
    Obs_sync.with_lock s.lock (fun () ->
        let values =
          match Hashtbl.find_opt s.values f.id with
          | Some values -> values
          | None ->
              let values = Array.make (List.length f.route) nan in
              Hashtbl.add s.values f.id values;
              values
        in
        if Float.is_nan values.(hop) then values.(hop) <- v);
    v
  end

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

let total_rate flows = List.fold_left (fun acc f -> acc +. Flow.rate f) 0. flows
