let steps ~lo ~hi ~step =
  assert (step > 0.);
  (* Generate by integer index, not by repeated addition: accumulating
     [x +. step] drifts by an ulp per term (0.1 +. 0.2 is already
     0.30000000000000004), which both misprints sweep labels and can
     gain or lose the endpoint.  [lo +. i * step] caps the error at one
     rounding, and snapping through a 12-significant-digit decimal
     rendering recovers the exact short decimals (0.3, not 0.300...04)
     that grid specs like 0.1..0.9 step 0.1 mean. *)
  let n = int_of_float (Float.floor (((hi -. lo) /. step) +. 0.5)) in
  if n < 0 then []
  else
    List.init (n + 1) (fun i ->
        let x = lo +. (float_of_int i *. step) in
        float_of_string (Printf.sprintf "%.12g" x))
