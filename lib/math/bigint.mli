(** Arbitrary-precision integers, written from scratch because the
    sealed environment has no [zarith].

    Values are immutable, sign-magnitude, with 26-bit limbs so that all
    intermediate products and accumulators in schoolbook multiplication
    and Knuth division stay inside OCaml's 63-bit native [int].

    Used on cold paths only: the ElGamal group arithmetic of the mixnet
    and the CRT reconstruction behind {!Rns.to_bigint_rows_centered}.
    Hot polynomial arithmetic stays in RNS ({!Rns}). *)

type t

val zero : t
val one : t

val of_int : int -> t

val compare : t -> t -> int
val sign : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val div : t -> t -> t
(** Truncated division, like [Stdlib.( / )]. Raises
    [Division_by_zero]. *)

val erem : t -> t -> t
(** Euclidean remainder: always in [\[0, |b|)]. *)

val rem_int : t -> int -> int
(** [rem_int a p] is the Euclidean remainder of [a] by a positive
    word-sized modulus [p < 2^31]; much faster than general division.
    Used on the RNS projection path. *)

val shift_right : t -> int -> t

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow base e m] is [base^e mod m] for [e >= 0], [m > 0]. *)

val of_bytes_be : bytes -> t
(** Big-endian unsigned magnitude. *)

val to_bytes_be : t -> bytes
(** Minimal-length big-endian magnitude of [abs t]; empty for zero. *)

val of_hex : string -> t

val random : Mycelium_util.Rng.t -> t -> t
(** [random rng bound] is uniform in [\[0, bound)] for [bound > 0]. *)
