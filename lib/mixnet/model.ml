let telescoping_rounds ~hops = (hops * hops) + (2 * hops)

let forwarding_rounds ~hops = (2 * hops) + 2

let binom n k =
  let rec go acc i = if i > k then acc else go (acc *. float_of_int (n - i + 1) /. float_of_int i) (i + 1) in
  go 1. 1

let anonymity_set ~n ~hops ~replicas ~fraction ~malicious =
  let growth = float_of_int replicas /. fraction in
  let acc = ref 0. in
  for honest = 0 to hops do
    let p =
      binom hops honest
      *. ((1. -. malicious) ** float_of_int honest)
      *. (malicious ** float_of_int (hops - honest))
    in
    acc := !acc +. (p *. Float.min n (growth ** float_of_int honest))
  done;
  Float.min n !acc

let identification_probability ~hops ~replicas ~malicious =
  1. -. ((1. -. (malicious ** float_of_int hops)) ** float_of_int replicas)

let goodput ~hops ~replicas ~failure_rate =
  let copy_survives = (1. -. failure_rate) ** float_of_int hops in
  1. -. ((1. -. copy_survives) ** float_of_int replicas)
