(** The Brakerski–Gentry–Vaikuntanathan leveled homomorphic
    cryptosystem (BGV'11), as used by Mycelium (§4.1, §5).

    Ciphertexts are polynomials in the secret key s over R_q: a
    "degree-D" ciphertext has D+1 ring components (c_0, ..., c_D) and
    decrypts as [sum_i c_i s^i mod q] mod t. Multiplication is a
    convolution of component vectors, so products of fresh ciphertexts
    grow in degree. Following the paper (§5), relinearization can be
    deferred: devices multiply without relinearizing and the aggregator
    performs a one-time key switch before decryption.

    Noise: every ciphertext carries a conservative noise-bits estimate;
    the exact invariant noise can be measured against a secret key with
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
val modulus_bits : ctx -> int

type secret_key
type public_key

type relin_key
(** Key-switching keys for s^2 .. s^max; built by {!relin_keygen}. *)

type ciphertext

val keygen : ctx -> Mycelium_util.Rng.t -> secret_key * public_key

val relin_keygen :
  ?digit_bits:int -> ctx -> Mycelium_util.Rng.t -> secret_key -> max_degree:int -> relin_key
(** Supports relinearizing ciphertexts up to the given degree.
    [digit_bits] (default 8, range [\[1, 30]]) trades key size and
    keygen time against relinearization noise: ceil(qbits/digit_bits)
    key pairs are stored per power, each contributing noise
    proportional to 2^digit_bits.  Paper-scale contexts (N = 32768,
    ~550-bit q) want a coarser base, e.g. 30, to keep the key material
    in the hundreds of megabytes. *)

val relin_max_degree : relin_key -> int

val encrypt : ctx -> Mycelium_util.Rng.t -> public_key -> Plaintext.t -> ciphertext

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
val sub : ciphertext -> ciphertext -> ciphertext
val add_plain : ctx -> ciphertext -> Plaintext.t -> ciphertext
val sub_plain : ctx -> ciphertext -> Plaintext.t -> ciphertext
val mul : ciphertext -> ciphertext -> ciphertext
val mul_plain : ctx -> ciphertext -> Plaintext.t -> ciphertext
val mul_many : ciphertext list -> ciphertext
(** Balanced product tree; raises [Invalid_argument] on []. *)

val relinearize : ctx -> relin_key -> ciphertext -> ciphertext
(** Reduce any ciphertext of degree <= [relin_max_degree] back to
    degree 1. *)

(** {2 Modulus switching}

    What makes BGV *leveled* (footnote of §4.1): after a
    multiplication, rescaling the ciphertext from q to q/p_last divides
    the noise by p_last at the cost of one RNS level.

    A caveat of this implementation: textbook BGV switching assumes the
    dropped prime is = 1 (mod t); our NTT primes are only = 1 (mod 2N),
    so the rescale scales the plaintext by p^-1 mod t, which
    {!mod_switch} undoes with a plaintext-scalar multiplication. That
    correction costs ~log2(t) bits, so the net per-switch noise gain is
    (prime_bits - t_bits) — substantial for small plaintext moduli,
    marginal for t near the prime size. Choosing primes = 1 (mod 2Nt)
    removes the correction but sharply thins the prime pool at the
    word sizes this library uses. *)

val drop_level : ctx -> ctx
(** The context with the last RNS prime removed
    ({!Mycelium_math.Rns.drop_last}, so the surviving limbs keep their
    NTT plans). Raises on a single-prime context. Its basis equals a
    fresh context's at [levels - 1]. *)

val mod_switch : ctx -> ciphertext -> ciphertext
(** [mod_switch small_ctx ct] rescales [ct] — which must live one level
    above [small_ctx] — to [small_ctx]'s modulus, preserving the
    plaintext mod t and dividing the noise by the dropped prime (plus a
    small additive term). Works at any ciphertext degree. *)

val project_secret_key : ctx -> secret_key -> secret_key
(** Re-express a secret key (small centered coefficients) in a
    lower-level context, for decrypting switched ciphertexts. *)

val noise_estimate_bits : ciphertext -> float
(** The tracked upper-bound estimate. *)

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

val linear_eval : ciphertext -> s:Rq.t -> Rq.t
(** [linear_eval ct ~s] computes c_0 + c_1 s for a degree-1 ciphertext
    (raises otherwise): the value a decryption committee reconstructs
    from partial shares. *)

val decode_noisy : ctx -> Rq.t -> Plaintext.t
(** Final decryption step: center mod q, reduce mod t. *)
