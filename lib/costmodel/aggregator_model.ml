module Zkp = Mycelium_zkp.Zkp

let zkp_verify_seconds_per_device (d : Defaults.t) ~cq =
  let per_proof = Zkp.Cost.verify_seconds ~public_io_bytes:(int_of_float Defaults.ciphertext_bytes) in
  (* d messages x Cq ciphertext proofs, plus one aggregation proof over
     a (d+1)-component ciphertext. *)
  let agg_io = Defaults.ciphertext_bytes *. float_of_int (d.Defaults.degree + 1) /. 2. in
  (float_of_int (d.Defaults.degree * cq) *. per_proof)
  +. Zkp.Cost.verify_seconds ~public_io_bytes:(int_of_float agg_io)

let aggregation_seconds_per_device ~cq =
  (* One homomorphic addition per ciphertext: a linear pass over the
     ~4.5 MB of residues; ~5 ms at memory bandwidth. *)
  0.005 *. float_of_int cq

let cores_breakdown d ~n ~deadline_seconds ~cq =
  ( n *. zkp_verify_seconds_per_device d ~cq /. deadline_seconds,
    n *. aggregation_seconds_per_device ~cq /. deadline_seconds )

let cores_with_spot_check d ~n ~deadline_seconds ~cq ~fraction =
  if fraction < 0. || fraction > 1. then invalid_arg "Aggregator_model: fraction in [0,1]";
  let z, a = cores_breakdown d ~n ~deadline_seconds ~cq in
  (fraction *. z) +. a

let undetected_bad_row_probability ~fraction = 1. -. fraction

let expected_undetected_rows (d : Defaults.t) ~n ~fraction =
  (* Malicious devices submit d*Cq bad rows each; an unchecked bad row
     survives. *)
  n *. d.Defaults.malicious *. float_of_int d.Defaults.degree
  *. undetected_bad_row_probability ~fraction
