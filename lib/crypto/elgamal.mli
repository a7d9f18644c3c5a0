(** ElGamal KEM + AEAD public-key encryption over a fixed 256-bit
    safe-prime group: far below cryptographic strength, deliberately,
    because the simulation spends one modular exponentiation per PEnc.
    Public keys serialize to 32 bytes.

    The paper instantiates PEnc with RSA-PKCS1, but RSA key generation
    is too slow to give thousands of simulated devices individual
    keypairs. This module is the simulation's PEnc instead: key
    generation is a single modular exponentiation,
    and the scheme is still genuinely asymmetric, so the simulated
    adversary learns nothing it shouldn't. Costs at paper scale are
    charged by the cost model regardless of which PEnc the simulation
    uses. *)

type public_key
type private_key

val generate : Mycelium_util.Rng.t -> public_key * private_key

val generate_insecure : Mycelium_util.Rng.t -> public_key * private_key
(** A keypair whose public half is a uniform group-range element rather
    than [g^x]: no modular exponentiation, so a million simulated
    devices can be created in seconds. The key fingerprints and
    serializes like a real one but cannot decrypt — strictly for
    simulation paths that never exercise PEnc (the mixnet's
    [fast_keys], valid only together with [fast_setup]). *)

val encrypt : Mycelium_util.Rng.t -> public_key -> bytes -> bytes
(** KEM-DEM: g^y || ChaCha20-Poly1305 under H(pk^y). *)

val decrypt : private_key -> bytes -> bytes option

val fingerprint : public_key -> bytes
(** SHA-256 of the encoded key: the pseudonym derivation h = H(pk). *)

val pub_to_bytes : public_key -> bytes
val pub_of_bytes : bytes -> public_key option
