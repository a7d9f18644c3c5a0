let log_binom n k =
  (* log of C(n, k) via lgamma-free accumulation. *)
  let acc = ref 0. in
  for i = 1 to k do
    acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
  done;
  !acc

let binom_tail n p k_min =
  (* P(X >= k_min) for X ~ Binomial(n, p). *)
  if p <= 0. then if k_min <= 0 then 1. else 0.
  else if p >= 1. then if k_min <= n then 1. else 0.
  else begin
    let acc = ref 0. in
    for k = max 0 k_min to n do
      let logp =
        log_binom n k +. (float_of_int k *. log p) +. (float_of_int (n - k) *. log (1. -. p))
      in
      acc := !acc +. exp logp
    done;
    Float.min 1. !acc
  end

let majority c = (c / 2) + 1

let privacy_failure ~committee ~malicious = binom_tail committee malicious (majority committee)

let liveness ~committee ~failure_rate =
  binom_tail committee (1. -. failure_rate) (majority committee)

(* Anchored to §6.5: 3 minutes and 4.5 GB per member at c=10. MPC
   wall-clock grows ~quadratically (pairwise channels), offline traffic
   ~linearly in the committee beyond the base ciphertext exchange. *)
let mpc_seconds ~committee =
  let c = float_of_int committee in
  180. *. (c /. 10.) ** 2.

let mpc_bandwidth_bytes ~committee =
  let c = float_of_int committee in
  4.5e9 *. c /. 10.

(* Two ring components (a fresh-ciphertext-sized object) for the
   encryption key. *)
let public_key_bytes = Defaults.ciphertext_bytes

let orchard_per_query_key_bytes ~n = n *. public_key_bytes

let mycelium_per_query_key_bytes ~committee =
  (* Each of the t+1 dealers sends every new member a sub-share of the
     key polynomial (one ring element of residues, ~half a ciphertext).
     The paper's VSR adds batched Feldman commitments, negligible beside
     it; this reproduction's hand-off sends none (DESIGN.md §2). *)
  let dealers = float_of_int ((committee / 2) + 1) in
  dealers *. float_of_int committee *. (Defaults.ciphertext_bytes /. 2.)
