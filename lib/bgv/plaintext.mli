(** Plaintexts of the BGV scheme: polynomials over Z_t of degree < N.

    Mycelium's encoding (§4.1) represents the value [a] as the monomial
    [x^a]; homomorphic multiplication then adds exponents (summing
    contributions inside a neighborhood) and homomorphic addition adds
    coefficients (counting, across origin vertices, how many
    neighborhoods produced each value — i.e. a histogram). *)

type t

val create : plain_modulus:int -> int array -> t
(** Coefficients are reduced mod t. *)

val zero : plain_modulus:int -> degree:int -> t

val monomial : plain_modulus:int -> degree:int -> exponent:int -> t
(** [x^exponent] with coefficient 1; raises [Invalid_argument] if the
    exponent does not fit the ring degree (the paper's "cannot support
    more bins than the degree N" restriction). *)

val coeffs : t -> int array
val plain_modulus : t -> int

val coeff : t -> int -> int
(** Coefficient of x^i (0 if beyond length). *)

val is_monomial : t -> (int * int) option
(** [Some (exponent, coeff)] if exactly one coefficient is non-zero,
    [None] otherwise (the all-zero plaintext is [Some (0, 0)]...
    no: all-zero returns [None]). Used by the well-formedness ZKP. *)

(* lint: allow unused-export — only tests compare plaintexts (test_bgv,
   test_core, test_secrets) *)
val equal : t -> t -> bool
