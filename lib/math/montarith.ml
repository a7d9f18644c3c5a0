(* Montgomery arithmetic with R = 2^62 over odd moduli p < 2^30.
   The Montgomery product of reduced x and y is x*y*R^-1 mod p; keeping
   the NTT twiddle tables in the Montgomery domain (w*R mod p) makes
   mont_mul(x, w*R) = x*w mod p, so transform data never leaves the
   normal domain.  All arithmetic stays inside OCaml's 63-bit native
   int: the reduction splits the 62-bit quantities into 31-bit halves
   exactly like Modarith.shoup_mul.  See DESIGN.md §11 for the bound
   derivation. *)

let r_bits = 62
let mask62 = (1 lsl 62) - 1
let mask31 = 0x7FFFFFFF

type ctx = {
  p : int;
  (* -p^-1 mod 2^62: the Montgomery companion constant. *)
  neg_p_inv : int;
  (* R^2 mod p, for moving values into the domain. *)
  r2_mod_p : int;
}

let neg_p_inv c = c.neg_p_inv

let supports p = p > 2 && p land 1 = 1 && p < 1 lsl 30

let precompute p =
  if not (supports p) then
    invalid_arg "Montarith.precompute: modulus must be odd and in (2, 2^30)";
  (* Newton–Hensel lifting of p^-1 mod 2^62: x <- x*(2 - p*x) doubles
     the number of correct low bits per step.  Any odd p is its own
     inverse mod 8 (p^2 = 1 mod 8), so five steps reach >= 62 bits. *)
  let x = ref p in
  for _ = 1 to 5 do
    x := (!x * (2 - (p * !x))) land mask62
  done;
  let p_inv = !x in
  let neg_p_inv = (0 - p_inv) land mask62 in
  let r_mod_p = Modarith.pow p 2 r_bits in
  { p; neg_p_inv; r2_mod_p = Modarith.mul p r_mod_p r_mod_p }

(* REDC: t -> t * R^-1 mod p for any t in [0, 2^62).  With
   m = t * (-p^-1) mod 2^62, the sum t + m*p is divisible by 2^62 and
   (t + m*p)/2^62 < p + 1, so one conditional subtraction canonicalises.
   The sum itself needs up to 2^62 + 2^61 bits of headroom, so both t
   and m are split into 31-bit halves; the low accumulator c0 stays
   under 2^61 + 2^31 and the high accumulator t1 under 2^62. *)
let reduce c t =
  if t < 0 || t > mask62 then
    invalid_arg "Montarith.reduce: operand must lie in [0, 2^62)";
  let p = c.p in
  let m = (t * c.neg_p_inv) land mask62 in
  let c0 = (t land mask31) + ((m land mask31) * p) in
  let t1 = (t lsr 31) + ((m lsr 31) * p) + (c0 lsr 31) in
  let u = t1 lsr 31 in
  if u >= p then u - p else u

let mul c x y =
  let p = c.p in
  if x < 0 || x >= p || y < 0 || y >= p then
    invalid_arg "Montarith.mul: operands must be reduced";
  (* x*y < 2^60 < 2^62, so the general reduction applies directly. *)
  reduce c (x * y)

let to_mont c x = mul c x c.r2_mod_p
