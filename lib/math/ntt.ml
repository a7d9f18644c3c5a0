type plan = {
  p : int;
  n : int;
  log_n : int;
  (* psi_pows.(i) = psi^(bitrev i), psi a primitive 2n-th root: merged
     twist + twiddle tables in the Cooley–Tukey / Gentleman–Sande pair
     of loops below (Longa–Naehrig layout). *)
  psi_pows : int array;
  inv_psi_pows : int array;
  n_inv : int;
  (* Shoup companion quotients floor(w * 2^62 / p) for every table
     entry, so the butterflies replace "* w mod p" (a hardware
     division) with two multiplies and a conditional subtraction. *)
  psi_shoup : int array;
  inv_psi_shoup : int array;
  n_inv_shoup : int;
}

let modulus t = t.p

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let find_primes ~degree ~bits ~count =
  if bits > 31 then invalid_arg "Ntt.find_primes: bits must be <= 31";
  if not (is_power_of_two degree) then invalid_arg "Ntt.find_primes: degree not a power of two";
  let step = 2 * degree in
  let top = 1 lsl bits in
  (* Largest candidate of the form k*2N + 1 below 2^bits. *)
  let start = ((top - 2) / step * step) + 1 in
  let rec collect acc cand remaining =
    if remaining = 0 then List.rev acc
    else if cand <= step then failwith "Ntt.find_primes: exhausted candidates"
    else if Modarith.is_prime cand then collect (cand :: acc) (cand - step) (remaining - 1)
    else collect acc (cand - step) remaining
  in
  collect [] start count

let bit_reverse_index bits i =
  let r = ref 0 and v = ref i in
  for _ = 1 to bits do
    r := (!r lsl 1) lor (!v land 1);
    v := !v lsr 1
  done;
  !r

(* The twiddle tables are shared verbatim by the Shoup path below and
   the Montgomery Bigarray kernels in Mont_backend: the two agree bit
   for bit because both read the same psi powers in the same
   bit-reversed layout. *)
type tables = {
  t_p : int;
  t_n : int;
  t_log_n : int;
  t_psi_pows : int array;
  t_inv_psi_pows : int array;
  t_n_inv : int;
}

let tables ~p ~degree:n =
  if not (is_power_of_two n) then invalid_arg "Ntt.tables: degree not a power of two";
  if (p - 1) mod (2 * n) <> 0 then invalid_arg "Ntt.tables: p <> 1 mod 2N";
  let log_n =
    let rec go k acc = if acc = n then k else go (k + 1) (acc * 2) in
    go 0 1
  in
  let psi = Modarith.nth_root_of_unity p (2 * n) in
  let inv_psi = Modarith.inv p psi in
  let table root =
    let t = Array.make n 1 in
    let pow = Array.make n 1 in
    for i = 1 to n - 1 do
      pow.(i) <- Modarith.mul p pow.(i - 1) root
    done;
    for i = 0 to n - 1 do
      t.(i) <- pow.(bit_reverse_index log_n i)
    done;
    t
  in
  {
    t_p = p;
    t_n = n;
    t_log_n = log_n;
    t_psi_pows = table psi;
    t_inv_psi_pows = table inv_psi;
    t_n_inv = Modarith.inv p n;
  }

let make_plan ~p ~degree:n =
  let tb = tables ~p ~degree:n in
  let psi_pows = tb.t_psi_pows in
  let inv_psi_pows = tb.t_inv_psi_pows in
  let n_inv = tb.t_n_inv in
  {
    p;
    n;
    log_n = tb.t_log_n;
    psi_pows;
    inv_psi_pows;
    n_inv;
    psi_shoup = Array.map (Modarith.shoup_precompute p) psi_pows;
    inv_psi_shoup = Array.map (Modarith.shoup_precompute p) inv_psi_pows;
    n_inv_shoup = Modarith.shoup_precompute p n_inv;
  }

(* The butterflies below inline Modarith.shoup_mul by hand: the OCaml
   compiler does not reliably inline across modules without flambda,
   and these two loops are the hottest code in the repo.  The Shoup
   product of a reduced x by table constant w with companion w' is
     q = floor(x * w' / 2^62)   (split so nothing exceeds 63 bits)
     r = x*w - q*p ∈ [0, p]     (one conditional subtraction)
   — see Modarith.shoup_mul and DESIGN.md §9 for the bounds. *)

(* Cooley–Tukey decimation-in-time with the psi powers folded into the
   twiddles; performs the negacyclic twist implicitly.  [forward_from]
   reads the first stage from [src] and writes [dst] (which may be the
   same array), then finishes in place on [dst]: the fused first stage
   is what lets callers keep [src] intact without a separate
   Array.copy pass. *)
let forward_from t src dst =
  let p = t.p and n = t.n in
  if Array.length src <> n || Array.length dst <> n then
    invalid_arg "Ntt.forward: wrong length";
  if n = 1 then (if dst != src then dst.(0) <- src.(0))
  else begin
    (* Stage m = 1: one butterfly span covering the whole array. *)
    let len = n / 2 in
    let w = t.psi_pows.(1) in
    let whi = t.psi_shoup.(1) lsr 31 and wlo = t.psi_shoup.(1) land 0x7FFFFFFF in
    for j = 0 to len - 1 do
      let u = src.(j) in
      let x = src.(j + len) in
      let q = ((x * whi) + ((x * wlo) lsr 31)) lsr 31 in
      let v = (x * w) - (q * p) in
      let v = if v >= p then v - p else v in
      let s = u + v in
      dst.(j) <- (if s >= p then s - p else s);
      let d = u - v in
      dst.(j + len) <- (if d < 0 then d + p else d)
    done;
    (* Remaining stages run in place on dst. *)
    let m = ref 2 and len = ref (n / 4) in
    while !len >= 1 do
      let m_v = !m and len_v = !len in
      for i = 0 to m_v - 1 do
        let w = t.psi_pows.(m_v + i) in
        let w' = t.psi_shoup.(m_v + i) in
        let whi = w' lsr 31 and wlo = w' land 0x7FFFFFFF in
        let j1 = 2 * i * len_v in
        for j = j1 to j1 + len_v - 1 do
          let u = dst.(j) in
          let x = dst.(j + len_v) in
          let q = ((x * whi) + ((x * wlo) lsr 31)) lsr 31 in
          let v = (x * w) - (q * p) in
          let v = if v >= p then v - p else v in
          let s = u + v in
          dst.(j) <- (if s >= p then s - p else s);
          let d = u - v in
          dst.(j + len_v) <- (if d < 0 then d + p else d)
        done
      done;
      m := m_v * 2;
      len := len_v / 2
    done
  end

let forward t a = forward_from t a a
let forward_into t ~src ~dst = forward_from t src dst

(* Gentleman–Sande decimation-in-frequency inverse, with the inverse
   twist folded in, followed by scaling by n^-1.  Mirror structure:
   the first stage (m = n/2, len = 1) reads [src] and writes [dst],
   the rest runs in place. *)
let inverse_from t src dst =
  let p = t.p and n = t.n in
  if Array.length src <> n || Array.length dst <> n then
    invalid_arg "Ntt.inverse: wrong length";
  let ninv = t.n_inv in
  let nhi = t.n_inv_shoup lsr 31 and nlo = t.n_inv_shoup land 0x7FFFFFFF in
  if n = 1 then begin
    let x = src.(0) in
    let q = ((x * nhi) + ((x * nlo) lsr 31)) lsr 31 in
    let r = (x * ninv) - (q * p) in
    dst.(0) <- (if r >= p then r - p else r)
  end
  else begin
    (* Stage m = n/2, len = 1: adjacent pairs, reads src, writes dst. *)
    let m_v = n / 2 in
    for i = 0 to m_v - 1 do
      let w = t.inv_psi_pows.(m_v + i) in
      let w' = t.inv_psi_shoup.(m_v + i) in
      let whi = w' lsr 31 and wlo = w' land 0x7FFFFFFF in
      let j = 2 * i in
      let u = src.(j) in
      let v = src.(j + 1) in
      let s = u + v in
      dst.(j) <- (if s >= p then s - p else s);
      let d = u - v in
      let x = if d < 0 then d + p else d in
      let q = ((x * whi) + ((x * wlo) lsr 31)) lsr 31 in
      let r = (x * w) - (q * p) in
      dst.(j + 1) <- (if r >= p then r - p else r)
    done;
    let m = ref (n / 4) and len = ref 2 in
    while !m >= 1 do
      let m_v = !m and len_v = !len in
      for i = 0 to m_v - 1 do
        let w = t.inv_psi_pows.(m_v + i) in
        let w' = t.inv_psi_shoup.(m_v + i) in
        let whi = w' lsr 31 and wlo = w' land 0x7FFFFFFF in
        let j1 = 2 * i * len_v in
        for j = j1 to j1 + len_v - 1 do
          let u = dst.(j) in
          let v = dst.(j + len_v) in
          let s = u + v in
          dst.(j) <- (if s >= p then s - p else s);
          let d = u - v in
          let x = if d < 0 then d + p else d in
          let q = ((x * whi) + ((x * wlo) lsr 31)) lsr 31 in
          let r = (x * w) - (q * p) in
          dst.(j + len_v) <- (if r >= p then r - p else r)
        done
      done;
      m := m_v / 2;
      len := len_v * 2
    done;
    for i = 0 to n - 1 do
      let x = dst.(i) in
      let q = ((x * nhi) + ((x * nlo) lsr 31)) lsr 31 in
      let r = (x * ninv) - (q * p) in
      dst.(i) <- (if r >= p then r - p else r)
    done
  end

let inverse t a = inverse_from t a a
let inverse_into t ~src ~dst = inverse_from t src dst

let pointwise_into t ~dst a b =
  let n = t.n and p = t.p in
  if Array.length a <> n || Array.length b <> n || Array.length dst <> n then
    invalid_arg "Ntt.pointwise: wrong length";
  for i = 0 to n - 1 do
    dst.(i) <- a.(i) * b.(i) mod p
  done

let pointwise t a b =
  let dst = Array.make t.n 0 in
  pointwise_into t ~dst a b;
  dst

let pointwise_acc t ~acc a b =
  let n = t.n and p = t.p in
  if Array.length a <> n || Array.length b <> n || Array.length acc <> n then
    invalid_arg "Ntt.pointwise_acc: wrong length";
  for i = 0 to n - 1 do
    let m = a.(i) * b.(i) mod p in
    let s = acc.(i) + m in
    acc.(i) <- (if s >= p then s - p else s)
  done

let multiply t a b =
  let n = t.n in
  if Array.length a <> n || Array.length b <> n then
    invalid_arg "Ntt.multiply: wrong length";
  let fa = Array.make n 0 and fb = Array.make n 0 in
  forward_from t a fa;
  forward_from t b fb;
  pointwise_into t ~dst:fa fa fb;
  inverse t fa;
  fa

let multiply_naive ~p a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Ntt.multiply_naive: length mismatch";
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0 then
      for j = 0 to n - 1 do
        if b.(j) <> 0 then begin
          let prod = a.(i) * b.(j) mod p in
          let k = i + j in
          if k < n then out.(k) <- Modarith.add p out.(k) prod
          else out.(k - n) <- Modarith.sub p out.(k - n) prod
        end
      done
  done;
  out
