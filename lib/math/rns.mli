(** Residue number system over a chain of NTT-friendly primes.

    A large ciphertext modulus q = p_0 * p_1 * ... * p_{L-1} is
    represented by per-prime residues so that all polynomial arithmetic
    runs on native ints (see {!Modarith}).  Decryption reduces residues
    to a small modulus by Garner's mixed-radix conversion, on native
    ints too ({!centered_mod_rows}); the big integer q appears only in
    {!to_bigint_rows_centered}, the exact CRT behind noise
    measurement. *)

type t
(** An RNS basis: the primes, their Montgomery NTT plans
    ({!Mont_backend}) for a fixed ring degree, and precomputed CRT
    constants. *)

val equal : t -> t -> bool
(** Same ring degree and the same prime chain, in order.  Two equal
    bases share all derived constants, so elements may move freely
    between them. *)

val standard : degree:int -> prime_bits:int -> levels:int -> t
(** The basis of [levels] NTT-friendly primes of [prime_bits] bits,
    picked by {!Ntt.find_primes}. Every prime must be odd and below
    2^30 (the Montgomery kernels' bound, see {!Mont_backend.make_plan}),
    so [prime_bits <= 30]; raises [Invalid_argument] otherwise. *)

val primes : t -> int array
val plans : t -> Mont_backend.plan array

(** [backend_name t] names the ring kernels the limb plans run on:
    always ["montgomery"]. Recorded in benchmark provenance. *)
val backend_name : t -> string
val degree : t -> int
val level_count : t -> int

val modulus_bits : t -> int

val to_bigint_rows_centered : t -> int array array -> Bigint.t array
(** Centered CRT reconstruction of a full residue matrix
    ([rows.(limb).(coeff)], as returned by {!Rq.residues} in the
    coefficient domain) to representatives in [(-q/2, q/2\]], in a
    single limb-major pass. *)

val centered_mod_rows : t -> modulus:int -> int array array -> int array
(** [centered_mod_rows t ~modulus rows] is, for every coefficient [c],
    the value whose residue at limb [i] is [rows.(i).(c)], taken centred
    in [(-q/2, q/2\]] and reduced into [\[0, modulus)]: the last step
    of BGV decryption.  Garner's mixed-radix conversion on native ints:
    P_k mod p_i, P_i^-1 mod p_i (P_k = p_0 ... p_{k-1}) and the
    mixed-radix digits of floor(q/2) are fixed per basis, the sign is a
    top-down digit compare with floor(q/2), and the weights P_k mod
    [modulus] are L products per call.  Every product stays below
    2^61 for a modulus up to 2^30, and inside a native int below 2^31.
    Requires [2 <= modulus < 2^31]; raises [Invalid_argument]
    otherwise or on a matrix of the wrong shape. *)
