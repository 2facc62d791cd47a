type t = Fifo | Static_priority | Edf | Gps

let to_string = function
  | Fifo -> "FIFO"
  | Static_priority -> "SP"
  | Edf -> "EDF"
  | Gps -> "GPS"
