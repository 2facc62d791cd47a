(* unused-export (bad): [orphan] is exported, but no other unit names
   it, and its own module's use below does not count.  This unit is
   also the other unit that keeps both exports of Clean_unused_export
   alive: one applied, one passed as a value. *)

let orphan x = Clean_unused_export.applied x

let _own_use = orphan 0

let _passed = List.map Clean_unused_export.passed [ 1; 2 ]
