type t = {
  primes : int array;
  plans : Mont_backend.plan array;
  degree : int;
  q : Bigint.t;
  (* crt_factor.(i) = (q / p_i) * ((q / p_i)^-1 mod p_i): summing
     residue_i * crt_factor.(i) and reducing mod q reconstructs. *)
  crt_factor : Bigint.t array;
  half_q : Bigint.t;
  (* Garner's mixed-radix conversion, with P_k = p_0 ... p_{k-1}:
     radix.(i).(k) = P_k mod p_i for k < i and radix_inv.(i) =
     P_i^-1 mod p_i, each beside its Shoup companion; half_digits are
     the mixed-radix digits of floor(q/2). *)
  radix : int array array;
  radix_shoup : int array array;
  radix_inv : int array;
  radix_inv_shoup : int array;
  half_digits : int array;
}

let primes t = t.primes

let equal a b =
  Int.equal a.degree b.degree
  && Int.equal (Array.length a.primes) (Array.length b.primes)
  && Array.for_all2 Int.equal a.primes b.primes
let plans t = t.plans
let degree t = t.degree
let level_count t = Array.length t.primes
let modulus_bits t = Bigint.num_bits t.q

let backend_name _ = "montgomery"

(* P_0 .. P_{len-1} reduced mod m, and P_len mod m. *)
let radix_weights primes m len =
  let w = Array.make len 0 in
  let acc = ref (1 mod m) in
  for k = 0 to len - 1 do
    w.(k) <- !acc;
    acc := Modarith.mul m !acc (primes.(k) mod m)
  done;
  (w, !acc)

(* x * w mod p for x < 2^31, with w's Shoup companion split as
   w' = hi 2^31 + lo: Modarith.shoup_mul written out for the loops
   below. *)
let[@inline] shoup p w hi lo x =
  let q = ((x * hi) + ((x * lo) lsr 31)) lsr 31 in
  let r = (x * w) - (q * p) - p in
  r + ((r asr 62) land p)

(* The mixed-radix digits v_0 .. v_{L-1} (0 <= v_i < p_i) of every
   column of [rows], limb-major: v_i = (r_i - sum_{k<i} v_k P_k)
   P_i^-1 mod p_i.  Each term is a Shoup product of a digit (below
   2^30) by a reduced constant, so nothing leaves a native int. *)
let mixed_radix t rows =
  let n = Array.length rows.(0) in
  let digits = Array.map (fun _ -> Array.make n 0) t.primes in
  Array.iteri
    (fun i p ->
      let v = digits.(i) in
      for k = 0 to i - 1 do
        let w = t.radix.(i).(k) and w' = t.radix_shoup.(i).(k) in
        let hi = w' lsr 31 and lo = w' land 0x7FFFFFFF and vk = digits.(k) in
        for c = 0 to n - 1 do
          let s = v.(c) + shoup p w hi lo vk.(c) - p in
          v.(c) <- s + ((s asr 62) land p)
        done
      done;
      let w = t.radix_inv.(i) and w' = t.radix_inv_shoup.(i) and r = rows.(i) in
      let hi = w' lsr 31 and lo = w' land 0x7FFFFFFF in
      for c = 0 to n - 1 do
        let d = r.(c) - v.(c) in
        v.(c) <- shoup p w hi lo (d + ((d asr 62) land p))
      done)
    t.primes;
  digits

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
  let weights = Array.mapi (fun i p -> radix_weights primes p i) primes in
  let radix = Array.map fst weights in
  let radix_inv = Array.mapi (fun i (_, top) -> Modarith.inv primes.(i) top) weights in
  let t =
    {
      primes;
      plans;
      degree;
      q;
      crt_factor;
      half_q = Bigint.shift_right q 1;
      radix;
      radix_shoup = Array.mapi (fun i w -> Array.map (Modarith.shoup_precompute primes.(i)) w) radix;
      radix_inv;
      radix_inv_shoup = Array.mapi (fun i w -> Modarith.shoup_precompute primes.(i) w) radix_inv;
      half_digits = [||];
    }
  in
  (* q is odd, so floor(q/2) = (q - 1)/2, whose residue at p_i is
     -2^-1 = (p_i - 1)/2. *)
  let half = mixed_radix t (Array.map (fun p -> [| (p - 1) / 2 |]) primes) in
  { t with half_digits = Array.map (fun d -> d.(0)) half }

let standard ~degree ~prime_bits ~levels =
  make ~primes:(Ntt.find_primes ~degree ~bits:prime_bits ~count:levels) ~degree

(* Limb-major CRT reconstruction of a whole residue matrix
   (rows.(limb).(coeff)): one pass per limb accumulating
   crt_factor.(j) * rows.(j).(i) into per-coefficient accumulators,
   then a single reduce-and-center pass. *)
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

(* A column's value x in [0, q) is sum_k v_k P_k over its mixed-radix
   digits, so x mod m = sum_k v_k (P_k mod m) mod m.  Centred, x is
   negative exactly when its digits, compared from the top, exceed
   those of floor(q/2); it is then x - q, so q mod m comes off.  Every
   digit is below 2^30 and every weight below m < 2^31, so each Shoup
   product stays inside a native int. *)
let centered_mod_rows t ~modulus rows =
  if modulus < 2 || modulus >= 1 lsl 31 then
    invalid_arg "Rns.centered_mod_rows: modulus must be in [2, 2^31)";
  let n = t.degree and l = Array.length t.primes in
  if Array.length rows <> l then invalid_arg "Rns.centered_mod_rows: wrong number of rows";
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Rns.centered_mod_rows: wrong row length")
    rows;
  let digits = mixed_radix t rows in
  let w, q_mod = radix_weights t.primes modulus l in
  let out = Array.make n 0 in
  Array.iteri
    (fun k v ->
      let w' = Modarith.shoup_precompute modulus w.(k) in
      let hi = w' lsr 31 and lo = w' land 0x7FFFFFFF in
      for c = 0 to n - 1 do
        let s = out.(c) + shoup modulus w.(k) hi lo v.(c) - modulus in
        out.(c) <- s + ((s asr 62) land modulus)
      done)
    digits;
  let half = t.half_digits in
  for c = 0 to n - 1 do
    let k = ref (l - 1) in
    while !k > 0 && Int.equal digits.(!k).(c) half.(!k) do
      decr k
    done;
    if digits.(!k).(c) > half.(!k) then begin
      let d = out.(c) - q_mod in
      out.(c) <- d + ((d asr 62) land modulus)
    end
  done;
  out
