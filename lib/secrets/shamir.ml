module Rng = Mycelium_util.Rng
module Modarith = Mycelium_math.Modarith
module Rns = Mycelium_math.Rns
module Rq = Mycelium_math.Rq

let validate ~p ~threshold ~parties =
  if threshold < 0 then invalid_arg "Shamir: negative threshold";
  if parties < threshold + 1 then invalid_arg "Shamir: too few parties for threshold";
  if parties >= p then invalid_arg "Shamir: more parties than field elements"

let lagrange_at_zero ~p xs =
  let k = Array.length xs in
  Array.init k (fun i ->
      let num = ref 1 and den = ref 1 in
      for j = 0 to k - 1 do
        if j <> i then begin
          (* lambda_i = prod_j x_j / (x_j - x_i) evaluated at 0. *)
          num := Modarith.mul p !num (Modarith.reduce p xs.(j));
          den := Modarith.mul p !den (Modarith.sub p (Modarith.reduce p xs.(j)) (Modarith.reduce p xs.(i)))
        end
      done;
      Modarith.mul p !num (Modarith.inv p !den))

type rq_share = { idx : int; value : Rq.t }

(* Ring shares live canonically in the evaluation domain: the secret
   key is Eval-resident after keygen, partial decryptions multiply
   shares straight into Eval ciphertexts, and sharing, interpolation
   and redistribution are all linear, so they commute with the NTT —
   sharing the transformed rows IS sharing the polynomial.

   Combining before evaluating is exact: evaluation is linear in the
   coefficients, so F(x) = sum_i w_i * f_i(x) mod p, and both sides
   are canonical residues.  Every product has a multiplicand fixed
   along a row — w_i per (dealer, prime), x per (party, prime) — so it
   is a Shoup multiply with a companion computed once per row. *)
let share_rq_weighted rng ~threshold ~parties ~weights values =
  match values with
  | [] -> invalid_arg "Shamir.share_rq_weighted: no values"
  | first :: _ ->
    let basis = Rq.basis_of first in
    let primes = Rns.primes basis in
    let n = Rns.degree basis in
    Array.iter (fun p -> validate ~p ~threshold ~parties) primes;
    let width = threshold + 1 in
    (* f.(pi).(c * width + k): coefficient k of F for residue
       coefficient c in prime pi. *)
    let f = Array.map (fun _ -> Array.make (n * width) 0) primes in
    List.iteri
      (fun i v ->
        Rq.force_eval v;
        let rows = Rq.residues v in
        Array.iteri
          (fun pi p ->
            let w = weights.(pi).(i) in
            let w' = Modarith.shoup_precompute p w in
            let fp = f.(pi) and row = rows.(pi) in
            for c = 0 to n - 1 do
              let base = c * width in
              fp.(base) <- Modarith.add p fp.(base) (Modarith.shoup_mul p w w' row.(c));
              for k = 1 to threshold do
                fp.(base + k) <-
                  Modarith.add p fp.(base + k) (Modarith.shoup_mul p w w' (Rng.int rng p))
              done
            done)
          primes)
      values;
    Array.init parties (fun j ->
        let x = j + 1 in
        let rows =
          Array.mapi
            (fun pi p ->
              let x' = Modarith.shoup_precompute p x in
              let fp = f.(pi) in
              let out = Array.make n 0 in
              for c = 0 to n - 1 do
                (* Horner from the top coefficient down. *)
                let base = c * width in
                let acc = ref fp.(base + threshold) in
                for k = threshold - 1 downto 0 do
                  acc := Modarith.add p (Modarith.shoup_mul p x x' !acc) fp.(base + k)
                done;
                out.(c) <- !acc
              done;
              out)
            primes
        in
        { idx = x; value = Rq.of_residues ~repr:Rq.Eval basis rows })

let share_rq rng ~threshold ~parties v =
  let ones = Array.map (fun _ -> [| 1 |]) (Rns.primes (Rq.basis_of v)) in
  share_rq_weighted rng ~threshold ~parties ~weights:ones [ v ]

let lambda_rows basis xs =
  Array.map (fun p -> lagrange_at_zero ~p xs) (Rns.primes basis)

let reconstruct_rq basis shares =
  let xs = Array.of_list (List.map (fun s -> s.idx) shares) in
  let lambdas = lambda_rows basis xs in
  let primes = Rns.primes basis in
  let n = Rns.degree basis in
  let acc = Array.map (fun _ -> Array.make n 0) primes in
  List.iteri
    (fun i s ->
      Rq.force_eval s.value;
      let rows = Rq.residues s.value in
      Array.iteri
        (fun pi p ->
          (* The Lagrange weight is fixed across the whole row, so a
             Shoup companion turns the per-coefficient reduction into
             two multiplies — this loop is degree * limbs * shares at
             paper scale. *)
          let l = lambdas.(pi).(i) in
          let l' = Modarith.shoup_precompute p l in
          for c = 0 to n - 1 do
            acc.(pi).(c) <- Modarith.add p acc.(pi).(c) (Modarith.shoup_mul p l l' rows.(pi).(c))
          done)
        primes)
    shares;
  Rq.of_residues ~repr:Rq.Eval basis acc
