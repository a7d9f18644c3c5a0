type t = {
  primes : int array;
  plans : Mont_backend.plan array;
  degree : int;
  q : Bigint.t;
  (* crt_factor.(i) = (q / p_i) * ((q / p_i)^-1 mod p_i): summing
     residue_i * crt_factor.(i) and reducing mod q reconstructs. *)
  crt_factor : Bigint.t array;
  half_q : Bigint.t;
}

let primes t = t.primes

let equal a b =
  Int.equal a.degree b.degree
  && Int.equal (Array.length a.primes) (Array.length b.primes)
  && Array.for_all2 Int.equal a.primes b.primes
let plans t = t.plans
let degree t = t.degree
let level_count t = Array.length t.primes
let modulus t = t.q
let modulus_bits t = Bigint.num_bits t.q

let backend_name _ = "montgomery"

let make ~primes ~degree =
  let primes = Array.of_list primes in
  let n = Array.length primes in
  if n = 0 then invalid_arg "Rns.make: empty basis";
  let distinct = Array.to_list primes |> List.sort_uniq Int.compare |> List.length in
  if distinct <> n then invalid_arg "Rns.make: duplicate primes";
  let plans = Array.map (fun p -> Mont_backend.make_plan ~p ~degree) primes in
  let q = Array.fold_left (fun acc p -> Bigint.mul acc (Bigint.of_int p)) Bigint.one primes in
  let crt_factor =
    Array.map
      (fun p ->
        let m_i = Bigint.div q (Bigint.of_int p) in
        let inv = Modarith.inv p (Bigint.rem_int m_i p) in
        Bigint.mul m_i (Bigint.of_int inv))
      primes
  in
  { primes; plans; degree; q; crt_factor; half_q = Bigint.shift_right q 1 }

let standard ~degree ~prime_bits ~levels =
  make ~primes:(Ntt.find_primes ~degree ~bits:prime_bits ~count:levels) ~degree

let to_bigint t residues =
  let acc = ref Bigint.zero in
  Array.iteri
    (fun i r -> acc := Bigint.add !acc (Bigint.mul_int t.crt_factor.(i) r))
    residues;
  Bigint.erem !acc t.q

let to_bigint_centered t residues =
  let v = to_bigint t residues in
  if Bigint.compare v t.half_q > 0 then Bigint.sub v t.q else v

(* Limb-major CRT reconstruction of a whole residue matrix
   (rows.(limb).(coeff)): one pass per limb accumulating
   crt_factor.(j) * rows.(j).(i) into per-coefficient accumulators,
   then a single reduce-and-center pass.  Same accumulation order
   (ascending limb index) as folding to_bigint_centered over columns,
   so the results are bit-identical to the column-major loop while
   touching each row sequentially. *)
let to_bigint_rows_centered t rows =
  if Array.length rows <> Array.length t.primes then
    invalid_arg "Rns.to_bigint_rows_centered: wrong number of rows";
  let n = t.degree in
  let acc = Array.make n Bigint.zero in
  Array.iteri
    (fun j row ->
      if Array.length row <> n then
        invalid_arg "Rns.to_bigint_rows_centered: wrong row length";
      let f = t.crt_factor.(j) in
      for i = 0 to n - 1 do
        acc.(i) <- Bigint.add acc.(i) (Bigint.mul_int f row.(i))
      done)
    rows;
  Array.map
    (fun v ->
      let v = Bigint.erem v t.q in
      if Bigint.compare v t.half_q > 0 then Bigint.sub v t.q else v)
    acc

let of_bigint t x = Array.map (fun p -> Bigint.rem_int x p) t.primes

let of_int t x = Array.map (fun p -> Modarith.reduce p x) t.primes
