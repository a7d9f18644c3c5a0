type t = {
  degree : int;
  plain_modulus : int;
  prime_bits : int;
  levels : int;
  error_eta : int;
}

let test_small =
  { degree = 256; plain_modulus = 257; prime_bits = 28; levels = 4; error_eta = 2 }

let test_medium =
  { degree = 1024; plain_modulus = 65537; prime_bits = 28; levels = 8; error_eta = 2 }

let paper =
  { degree = 32768; plain_modulus = 1 lsl 30; prime_bits = 30; levels = 19; error_eta = 2 }

let modulus_bits t = t.prime_bits * t.levels

let ciphertext_bytes t ~degree =
  let coeff_bytes = (modulus_bits t + 7) / 8 in
  (degree + 1) * t.degree * coeff_bytes

let validate t =
  if t.degree land (t.degree - 1) <> 0 || t.degree < 2 then
    invalid_arg "Params: degree must be a power of two >= 2";
  if t.plain_modulus < 2 then invalid_arg "Params: plain_modulus must be >= 2";
  if t.plain_modulus >= 1 lsl 31 then invalid_arg "Params: plain_modulus must be below 2^31";
  if t.prime_bits < 20 || t.prime_bits > 30 then
    invalid_arg "Params: prime_bits must be in [20, 30]";
  if t.levels < 1 then invalid_arg "Params: levels must be >= 1";
  if t.error_eta < 1 then invalid_arg "Params: error_eta must be >= 1"
