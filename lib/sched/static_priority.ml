let class_service ~rate ~higher ~blocking =
  if blocking < 0. then invalid_arg "Static_priority: negative blocking";
  Pwl.lower_convex_hull
    (Pwl.nonneg
       (Pwl.sub (Service.constant_rate rate)
          (Pwl.add higher (Pwl.constant blocking))))

let local_delay ~rate ~higher ~own ~blocking =
  Deviation.hdev ~alpha:own ~beta:(class_service ~rate ~higher ~blocking)
