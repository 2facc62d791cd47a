let local_delay ~rate ~agg = Deviation.delay_fifo_aggregate ~agg ~rate

let backlog ~rate ~agg =
  Deviation.vdev ~alpha:agg ~beta:(Service.constant_rate rate)

let busy_period ~rate ~agg = Minplus.busy_period ~agg ~rate
