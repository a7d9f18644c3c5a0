(** Residue number system over a chain of NTT-friendly primes.

    A large ciphertext modulus q = p_0 * p_1 * ... * p_{L-1} is
    represented by per-prime residues so that all polynomial arithmetic
    runs on native ints (see {!Modarith}); the big integer q only
    appears at CRT reconstruction time (BGV decryption, key switching
    digit decomposition). *)

type t
(** An RNS basis: the primes, their Montgomery NTT plans
    ({!Mont_backend}) for a fixed ring degree, and precomputed CRT
    constants. *)

val equal : t -> t -> bool
(** Same ring degree and the same prime chain, in order.  Two equal
    bases share all derived constants, so elements may move freely
    between them. *)

val make : primes:int list -> degree:int -> t
(** Build a basis. Every prime must satisfy [p = 1 (mod 2*degree)], be
    odd and below 2^30 (the Montgomery kernels' bound, see
    {!Mont_backend.available}), and be pairwise distinct. Raises
    [Invalid_argument] otherwise. *)

val standard : degree:int -> prime_bits:int -> levels:int -> t
(** Convenience: pick [levels] NTT-friendly primes of [prime_bits] bits
    via {!Ntt.find_primes}. [prime_bits <= 30]. *)

val primes : t -> int array
val plans : t -> Mont_backend.plan array

(** [backend_name t] names the ring kernels the limb plans run on:
    always ["montgomery"]. Recorded in benchmark provenance. *)
val backend_name : t -> string
val degree : t -> int
val level_count : t -> int

val modulus : t -> Bigint.t
(** q, the product of all primes. *)

val modulus_bits : t -> int

val to_bigint : t -> int array -> Bigint.t
(** [to_bigint t residues] CRT-reconstructs a single coefficient from
    its per-prime residues ([residues.(i)] mod [primes.(i)]) to the
    representative in [\[0, q)]. *)

val to_bigint_centered : t -> int array -> Bigint.t
(** Same, but returns the centered representative in [(-q/2, q/2\]]. *)

val to_bigint_rows_centered : t -> int array array -> Bigint.t array
(** Centered CRT reconstruction of a full residue matrix
    ([rows.(limb).(coeff)], as returned by {!Rq.residues} in the
    coefficient domain) in a single limb-major pass — equivalent to
    mapping {!to_bigint_centered} over columns but without the
    per-coefficient temporary. *)

val of_bigint : t -> Bigint.t -> int array
(** Project an integer (any sign) onto the basis. *)

val of_int : t -> int -> int array
(** Project a signed machine integer (fast path). *)
