(** Arbitrary-precision integers, written from scratch because the
    sealed environment has no [zarith].

    Values are immutable, sign-magnitude, with 26-bit limbs so that all
    intermediate products and accumulators in schoolbook multiplication
    and Knuth division stay inside OCaml's 63-bit native [int].

    Used on cold paths only: CRT reconstruction at BGV decryption,
    Feldman commitments, and key switching. Hot polynomial arithmetic
    stays in RNS ({!Rns}). *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
val to_int : t -> int
(** Raises [Failure] if the value does not fit in a native int. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val add_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [|r| < |b|], and [r]
    having the sign of [a] (truncated division, like [Stdlib.( / )]).
    Raises [Division_by_zero]. *)

val div : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: always in [\[0, |b|)]. *)

val rem_int : t -> int -> int
(** [rem_int a p] is the Euclidean remainder of [a] by a positive
    word-sized modulus [p < 2^31]; much faster than general division.
    Used on the RNS projection path. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val pow : t -> int -> t
(** [pow b e] for small non-negative [e]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow base e m] is [base^e mod m] for [e >= 0], [m > 0]. *)

val gcd : t -> t -> t

val mod_inv : t -> t -> t
(** [mod_inv a m] with [gcd a m = 1]; result in [\[0, m)]. Raises
    [Invalid_argument] if not invertible. *)

val of_string : string -> t
(** Decimal, with optional leading '-'. *)

val to_string : t -> string

val of_bytes_be : bytes -> t
(** Big-endian unsigned magnitude. *)

val to_bytes_be : t -> bytes
(** Minimal-length big-endian magnitude of [abs t]; empty for zero. *)

val of_hex : string -> t

val random : Mycelium_util.Rng.t -> t -> t
(** [random rng bound] is uniform in [\[0, bound)] for [bound > 0]. *)

val random_bits : Mycelium_util.Rng.t -> int -> t
(** Uniform with exactly the given number of bits (top bit set). *)

val is_probable_prime : ?rounds:int -> Mycelium_util.Rng.t -> t -> bool
(** Miller–Rabin with random bases; error probability <= 4^-rounds. *)

val random_prime : Mycelium_util.Rng.t -> bits:int -> t
(** Random probable prime with the given bit length. *)

val pp : Format.formatter -> t -> unit
