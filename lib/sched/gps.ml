let guaranteed_rate ~rate ~weight ~total_weight =
  if weight <= 0. || total_weight < weight then
    invalid_arg "Gps: weights must satisfy 0 < weight <= total_weight";
  rate *. weight /. total_weight

let flow_service ~rate ~weight ~total_weight =
  Service.rate_latency
    ~rate:(guaranteed_rate ~rate ~weight ~total_weight)
    ~latency:0.

let local_delay ~rate ~weight ~total_weight ~alpha =
  Deviation.hdev ~alpha ~beta:(flow_service ~rate ~weight ~total_weight)
