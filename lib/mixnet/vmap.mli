(** The verifiable maps M1 and M2 of §3.3.

    For a query epoch, the aggregator compiles every device's recent
    pseudonyms. M1 is a Merkle tree mapping each pseudonym number in
    [0, Np*P) to a leaf (h_i, pk_i, d_i); M2 maps each device number to
    the hashes of that device's pseudonyms and public keys. Both roots
    go on the bulletin board. Devices then audit:

    - each device looks up its own pseudonyms in M1 (detecting
      omission);
    - each device spot-checks x random M1 entries against M2 (a device
      with more than P pseudonyms overflows its M2 leaf; a Sybil
      aggregator runs out of M2's Np leaves).

    Lookup proofs are positional (see {!Mycelium_crypto.Merkle}), so
    the aggregator cannot answer a lookup for index n with a different
    leaf. *)

type m1_leaf = { pseudonym : bytes; pk : bytes; device : int }

(* lint: allow interface — a VMap log is compared through its Merkle roots, not structurally *)
type t

val build : max_pseudonyms_per_device:int -> m1_leaf array -> (t, string) result
(** Checks the advertised bound, that pseudonyms are distinct, device
    numbers non-negative and every pk a group element
    ({!Mycelium_crypto.Elgamal.pub_of_bytes}) with h = H(pk), as an
    honest aggregator guarantees. An empty map is refused. *)

(* lint: allow unused-export — test_mixnet builds the malicious maps its
   audit cells must catch; it writes the leaves without the checks *)
val build_unchecked : max_pseudonyms_per_device:int -> m1_leaf array -> t
(** What a malicious aggregator does; audits must catch it. *)

val size : t -> int
(** Number of M1 entries (= Np * P for a full map). *)

val device_count : t -> int

val m1_root : t -> bytes

val roots_payload : t -> bytes
(** Canonical encoding of both roots for the bulletin board. *)

type lookup = { leaf : m1_leaf; proof : Mycelium_crypto.Merkle.proof }

val lookup : t -> int -> lookup
(** Aggregator-side answer to "give me pseudonym number n". *)

val verify_lookup : m1_root:bytes -> index:int -> lookup -> bool
(** Device-side check: proof verifies, the path matches [index], and
    the leaf's pseudonym is H(pk). *)

val pub_of_lookup : lookup -> Mycelium_crypto.Elgamal.public_key option
(** Parse the looked-up public key. *)

type m2_lookup = { payload : bytes; proof : Mycelium_crypto.Merkle.proof }

val audit_own_pseudonyms : t -> device:int -> pseudonyms:bytes list -> bool
(** The first device-side audit: all my pseudonyms are present and
    correctly mapped to me. *)

val audit_spot_check :
  t -> Mycelium_util.Rng.t -> samples:int -> bool
(** The second audit, as run by an honest device: sample random M1
    indices, verify each lookup, and verify M1/M2 consistency for it.
    Returns false as soon as any check fails. *)
