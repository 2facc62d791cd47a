(* Fixture for the pwl-poly-eq rule: polymorphic comparison/hash on
   values syntactically known to be Pwl.t.  Never compiled — only
   parsed by netcalc-lint's self-tests. *)

let f = Pwl.make [ (0., 0., 1.) ]
let g : Pwl.t = Pwl.zero
let direct_eq = f = g
let direct_ne = Pwl.zero <> g
let cmp = compare f (Pwl.scale 2. g)
let h = Hashtbl.hash (Pwl.add f g)

(* The blessed API is not flagged. *)
let ok = Pwl.equal f g
let ok_cmp = Pwl.compare f g
