(** The Brakerski–Gentry–Vaikuntanathan leveled homomorphic
    cryptosystem (BGV'11), as used by Mycelium (§4.1, §5).

    Ciphertexts are polynomials in the secret key s over R_q: a
    "degree-D" ciphertext has D+1 ring components (c_0, ..., c_D) and
    decrypts as [sum_i c_i s^i mod q] mod t. Multiplication is a
    convolution of component vectors, so products of fresh ciphertexts
    grow in degree. Following the paper (§5), relinearization can be
    deferred: devices multiply without relinearizing and the aggregator
    performs a one-time key switch before decryption.

    Noise: a ciphertext carries no noise estimate. Admission bounds the
    multiplicative depth ahead of time
    ({!Mycelium_query.Analysis.max_multiplications}); the exact
    invariant noise can be measured against a secret key with
    {!noise_budget} (the tests do). *)

module Rq = Mycelium_math.Rq
module Rns = Mycelium_math.Rns

type ctx

val make_ctx : Params.t -> ctx
(** A context over [Params.levels] primes of [Params.prime_bits] bits
    from {!Mycelium_math.Ntt.find_primes}. Raises [Invalid_argument]
    if the parameters fail {!Params.validate} or the plain modulus
    shares a factor with q. *)

val params : ctx -> Params.t
val basis : ctx -> Rns.t
val plain_modulus : ctx -> int

type secret_key
type public_key

type relin_key
(** Key-switching keys for s^2 .. s^max; built by {!relin_keygen}. *)

val relin_max_degree : relin_key -> int
(** The highest ciphertext degree the key relinearizes: the
    [max_degree] it was built with. *)

(* lint: allow unused-export — test_bgv reads the key's size back *)
val relin_key_pairs : relin_key -> int
(** Key pairs held: (max_degree - 1) x L, one per power of s and per
    prime of the basis. *)

type ciphertext

val keygen : ctx -> Mycelium_util.Rng.t -> secret_key * public_key

val relin_keygen : ctx -> Mycelium_util.Rng.t -> secret_key -> max_degree:int -> relin_key
(** Supports relinearizing ciphertexts up to the given degree, with the
    RNS gadget (Bajard–Eynard–Hasan–Zucca, SAC 2016; Kim–Polyakov–Zucca,
    ASIACRYPT 2021): for each power s^k and each prime p_j, one pair
    (-(a s + t e) + s^k u_j, a), where u_j has residue 1 at limb j and 0
    elsewhere. That is (max_degree - 1) x L pairs; no big integer is
    involved. *)

val encrypt : ctx -> Mycelium_util.Rng.t -> public_key -> Plaintext.t -> ciphertext
(** [(c0, c1) = (p0 u + (t e1 + m), p1 u + t e2)] with u ternary and
    e1, e2 centered binomial, drawn from [rng] in that order. Both
    components are in [Eval]; the public key is read, never converted
    (keygen leaves it in [Eval]). *)

val encrypt_value : ctx -> Mycelium_util.Rng.t -> public_key -> int -> ciphertext
(** [encrypt_value ctx rng pk a] encrypts the monomial x^a — the §4.1
    value encoding. *)

val encrypt_zero_polynomial : ctx -> Mycelium_util.Rng.t -> public_key -> ciphertext
(** Encrypts the zero polynomial (used when a WHERE predicate fails at
    the origin: "replaces the ciphertext with Enc(0)", §4.4). Note this
    is different from [encrypt_value _ _ _ 0] = Enc(x^0). *)

val decrypt : ctx -> secret_key -> ciphertext -> Plaintext.t

val degree : ciphertext -> int
val components : ciphertext -> Rq.t array

val add : ciphertext -> ciphertext -> ciphertext
val sub_plain : ctx -> ciphertext -> Plaintext.t -> ciphertext
val mul : ciphertext -> ciphertext -> ciphertext
val mul_plain : ctx -> ciphertext -> Plaintext.t -> ciphertext
val mul_many : ciphertext list -> ciphertext
(** Balanced product tree; raises [Invalid_argument] on []. *)

val relinearize : ctx -> relin_key -> ciphertext -> ciphertext
(** Reduce any ciphertext of degree D up to the key's [max_degree] back
    to degree 1. Component c_k (k >= 2) is split into its L RNS digits
    ({!Rq.rns_digits}: residue row j, centered in (-p_j/2, p_j/2\],
    lifted to every limb), and each half of the key switch accumulates
    every digit-by-key product in one fused {!Rq.dot}.

    Noise: the switch adds t * sum_{k,j} D_{k,j} e_{k,j} to the
    invariant noise, with |D| <= p/2 and |e| <= eta, so each
    coefficient grows by at most (D - 1) * L * (p/2) * t * eta * N,
    where p is the largest prime: the noise after is at most one bit
    above the larger of the noise before and that bound.
    Raises [Invalid_argument] when D exceeds the key's degree. *)

(* lint: allow unused-export — test_bgv measures the noise left in a
   ciphertext with the secret key *)
val noise_budget : ctx -> secret_key -> ciphertext -> int
(** Exact remaining noise budget in bits, measured with the secret key:
    positive means decryption is correct. *)

val ciphertext_bytes : ctx -> degree:int -> int
(** [Bytes.length (serialize ct)] for a ciphertext of this degree under
    this context: 4 bytes per residue plus the tags and counts. The
    paper's packed size is {!Params.ciphertext_bytes}. *)

val serialize : ciphertext -> bytes
(** The wire form: little-endian int32 fields, the component count,
    then per component its representation tag (0 = Coeff, 1 = Eval) and
    row count, and per row its length and one 4-byte field per residue.
    Rows are written in the domain they are resident in. *)

val hash_into : Mycelium_crypto.Sha256.ctx -> ciphertext -> unit
(** [hash_into h ct] absorbs exactly [serialize ct] into [h], through a
    small per-call chunk instead of a payload-sized buffer. *)

val wire_equal : ciphertext -> ciphertext -> bool
(** [wire_equal a b = Bytes.equal (serialize a) (serialize b)], compared
    in place: component counts, representation tags, row counts, row
    lengths and residues. Equal values resident in different domains
    compare unequal; neither operand is converted. *)

val deserialize : ctx -> bytes -> ciphertext option

(** {2 Hooks for threshold decryption (lib/secrets)} *)

val secret_poly : secret_key -> Rq.t
(** The raw key polynomial s; exposed so committees can Shamir-share
    it. Never used by protocol code paths outside key ceremonies. *)

val secret_key_of_poly : ctx -> Rq.t -> secret_key

val decode_noisy : ctx -> Rq.t -> Plaintext.t
(** Final decryption step: center mod q, reduce mod t, by Garner's
    mixed-radix conversion on native ints ({!Rq.centered_mod}). *)
