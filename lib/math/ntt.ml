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

(* The merged twist + twiddle tables of the negacyclic transform
   (Longa–Naehrig layout): psi_pows.(i) = psi^(bitrev i), psi a
   primitive 2N-th root of unity.  Mont_backend re-encodes them into
   the Montgomery domain. *)
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
