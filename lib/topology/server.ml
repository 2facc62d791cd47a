type t = { id : int; name : string; rate : float; discipline : Discipline.t }

let make ~id ?name ~rate ?(discipline = Discipline.Fifo) () =
  if rate <= 0. then invalid_arg "Server.make: rate <= 0";
  if id < 0 then invalid_arg "Server.make: negative id";
  let name = match name with Some n -> n | None -> "s" ^ string_of_int id in
  { id; name; rate; discipline }
