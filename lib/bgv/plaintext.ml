type t = { t_mod : int; n : int; c : int array }

let create ~plain_modulus coeffs =
  if plain_modulus < 2 then invalid_arg "Plaintext.create: bad modulus";
  let c = Array.map (fun v -> ((v mod plain_modulus) + plain_modulus) mod plain_modulus) coeffs in
  { t_mod = plain_modulus; n = Array.length coeffs; c }

let zero ~plain_modulus ~degree = { t_mod = plain_modulus; n = degree; c = Array.make degree 0 }

let monomial ~plain_modulus ~degree ~exponent =
  if exponent < 0 || exponent >= degree then
    invalid_arg "Plaintext.monomial: exponent out of ring degree (too many bins)";
  let c = Array.make degree 0 in
  c.(exponent) <- 1;
  { t_mod = plain_modulus; n = degree; c }

let coeffs t = t.c
let plain_modulus t = t.t_mod

let coeff t i = if i < Array.length t.c then t.c.(i) else 0

let is_monomial t =
  let found = ref None and multiple = ref false in
  Array.iteri
    (fun i v ->
      if v <> 0 then
        match !found with Some _ -> multiple := true | None -> found := Some (i, v))
    t.c;
  if !multiple then None else !found

let equal a b =
  a.t_mod = b.t_mod
  &&
  let n = max (Array.length a.c) (Array.length b.c) in
  let rec go i = i >= n || (Int.equal (coeff a i) (coeff b i) && go (i + 1)) in
  go 0
