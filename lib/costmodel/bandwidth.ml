let cts (d : Defaults.t) ~cq = float_of_int (d.Defaults.replicas * cq * d.Defaults.degree)

let non_forwarder_bytes d ~cq = 2. *. cts d ~cq *. Defaults.ciphertext_bytes

let forwarder_bytes d ~cq =
  non_forwarder_bytes d ~cq
  +. (cts d ~cq /. d.Defaults.fraction *. Defaults.ciphertext_bytes)

let forwarder_probability (d : Defaults.t) = float_of_int d.Defaults.hops *. d.Defaults.fraction

let expected_bytes d ~cq =
  let p = forwarder_probability d in
  (p *. forwarder_bytes d ~cq) +. ((1. -. p) *. non_forwarder_bytes d ~cq)

let aggregator_per_device_bytes d ~cq =
  (* Deliveries to the destination plus k forwarder-batch downloads,
     amortized: (k+1) * r * Cq * d ciphertexts. *)
  float_of_int (d.Defaults.hops + 1) *. cts d ~cq *. Defaults.ciphertext_bytes
