(** Modular arithmetic over word-sized prime fields.

    All moduli handled here are at most 2^31 - 1, so that the product of
    two reduced residues fits in OCaml's 63-bit native [int] without
    overflow. The RNS representation in {!Rns} builds big ciphertext
    moduli out of several such primes, keeping every hot-path operation
    in native ints. *)

val add : int -> int -> int -> int
(** [add p a b] is [(a + b) mod p] for reduced [a], [b]. *)

val sub : int -> int -> int -> int
(** [sub p a b] is [(a - b) mod p], non-negative. *)

val neg : int -> int -> int

val mul : int -> int -> int -> int
(** [mul p a b]; requires [p < 2^31] and reduced operands. *)

val pow : int -> int -> int -> int
(** [pow p base e] for [e >= 0], square-and-multiply. *)

val inv : int -> int -> int
(** [inv p a] is the multiplicative inverse of [a] mod prime [p].
    Raises [Invalid_argument] if [a = 0 (mod p)]. *)

val reduce : int -> int -> int
(** [reduce p x] maps any int (possibly negative) to [\[0, p)]. *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin, valid for all [n < 3.3e24] (we use it
    for word-sized candidates only). *)

val nth_root_of_unity : int -> int -> int
(** [nth_root_of_unity p n] is an element of exact order [n] in
    [(Z/p)^*]. Requires [n] divides [p - 1]. *)

val shoup_precompute : int -> int -> int
(** [shoup_precompute p w] is the Shoup companion quotient
    [floor (w * 2^62 / p)] for a fixed multiplicand [w], computed
    entirely in native ints. Requires [p < 2^31]. *)

val shoup_mul : int -> int -> int -> int -> int
(** [shoup_mul p w w' x] is [x * w mod p] using the precomputed
    [w' = shoup_precompute p w]: two multiplies plus a conditional
    subtraction, no division. Requires reduced [x] and [p < 2^31].
    The NTT butterflies inline this arithmetic; this entry point is the
    specification used by the equivalence tests. *)
