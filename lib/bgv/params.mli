(** BGV parameter sets.

    The paper (§5) uses N = 32768, a 550-bit ciphertext modulus, and
    plaintext modulus 2^30 — large enough to "bin"-aggregate over a
    billion devices and encode values of up to 30 bits. Running those
    parameters in a pure-OCaml simulation of millions of devices would
    be pointless, so, like the paper itself (§6.1), we benchmark
    scaled-down parameters and extrapolate with {!paper}'s dimensions
    (see [Mycelium_costmodel]). *)

type t = {
  degree : int;  (** ring degree N (a power of two) *)
  plain_modulus : int;  (** t in [\[2, 2^31)]; must be coprime with every prime *)
  prime_bits : int;  (** bits per RNS prime (<= 30) *)
  levels : int;  (** number of RNS primes; q has ~levels*prime_bits bits *)
  error_eta : int;  (** centered-binomial error parameter *)
}

val test_small : t
(** N=256: fast unit tests. *)

val test_medium : t
(** N=1024, deeper modulus: multi-hop aggregation tests. *)

val paper : t
(** N=32768, 19 30-bit primes (~550-bit q), t=2^30: the paper's
    parameter set. Too heavy for unit tests, but runnable end-to-end:
    [bench --only ringops] drives keygen/encrypt/mul/relinearize/
    decrypt at these dimensions on the Montgomery kernels (19 key pairs
    per power of s, one per prime); the cost model uses it for sizes
    and extrapolation. *)

val modulus_bits : t -> int
(** Approximate bits of q. *)

val ciphertext_bytes : t -> degree:int -> int
(** Serialized size of a ciphertext with [degree+1] ring components:
    each stores N coefficients of [modulus_bits] bits. With {!paper}
    and degree 1 this is ~4.5 MB, matching the paper's 4.3 MB. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent settings. *)
