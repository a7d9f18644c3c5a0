(** Zero-knowledge proofs of ciphertext well-formedness and product
    correctness (§4.6).

    The paper uses Groth16 via ZoKrates/bellman with a trusted setup
    performed by the genesis committee. A pairing-based SNARK stack is
    out of scope for this reproduction (see DESIGN.md); what the system
    needs from the ZKP layer is (a) *soundness inside the simulation* —
    a Byzantine device must not get a malformed contribution accepted —
    and (b) *faithful costs* for the evaluation figures.

    Both are provided without pairings:
    - [prove_*] actually checks the constraint system against the
      witness (for contributions, it re-encrypts deterministically from
      the witness seed and compares ciphertexts, and checks the §4.6
      plaintext structure: zero, or a single coefficient equal to 1).
      It refuses to sign otherwise, like a real prover that cannot find
      a satisfying witness.
    - Accepted statements are bound by a MAC under a key derived from
      the trusted setup (standing in for the SRS trapdoor); [forge]
      models a Byzantine device fabricating a proof without a witness,
      which verification rejects.
    - {!Cost} carries the Groth16 cost model (constant proof size;
      verification linear in the public I/O, which for Mycelium is
      dominated by the 4.3 MB ciphertexts — the reason ZKP verification
      dominates Figure 9b). *)

type srs
(** The structured reference string from the genesis committee's
    trusted setup. *)

val setup : Mycelium_util.Rng.t -> srs

type proof

val proof_to_bytes : proof -> bytes
(** Wire form (the simulation's stand-in for the 192-byte Groth16
    proof). *)

val proof_of_bytes : bytes -> proof option

(** {2 Statement 1: well-formed contribution} *)

val prove_contribution :
  srs ->
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_bgv.Bgv.public_key ->
  plaintext:Mycelium_bgv.Plaintext.t ->
  seed:int64 ->
  Mycelium_bgv.Bgv.ciphertext ->
  proof option
(** [None] when the witness does not satisfy the constraints: the
    ciphertext is not the deterministic encryption of [plaintext] under
    [seed], or the plaintext is neither zero nor a coefficient-1
    monomial. *)

val verify_contribution :
  srs -> Mycelium_bgv.Bgv.ctx -> Mycelium_bgv.Bgv.ciphertext -> proof -> bool

(** {2 Statement 2: correct local aggregation}

    The proven statement is "output = F(inputs)" for a public
    aggregation circuit F: an interior vertex's product of its own and
    its children's ciphertexts (label ["subtree-aggregation"], F =
    [Bgv.mul_many]), or an origin's §4.5 sequence selection and GROUP BY
    shifts (label ["origin-aggregation"]). The prover re-executes F on
    the witness and refuses ([None]) unless the result has [output]'s
    wire form; the statement digest binds the label, a public context
    string (the selection sets and shifts, which are public query
    parameters), the output and the inputs. *)

val prove_transcript :
  srs ->
  label:string ->
  context:bytes ->
  inputs:Mycelium_bgv.Bgv.ciphertext list ->
  output:Mycelium_bgv.Bgv.ciphertext ->
  recompute:(Mycelium_bgv.Bgv.ciphertext list -> Mycelium_bgv.Bgv.ciphertext) ->
  proof option

val verify_transcript :
  srs ->
  label:string ->
  context:bytes ->
  inputs:Mycelium_bgv.Bgv.ciphertext list ->
  output:Mycelium_bgv.Bgv.ciphertext ->
  proof ->
  bool

val forge : Mycelium_util.Rng.t -> proof
(** What a Byzantine device without a witness can produce; never
    verifies (except with the trapdoor, which nobody in the simulated
    protocol holds). *)

(** {2 Groth16 cost model} *)

module Cost : sig
  val prove_seconds : constraints:int -> float
  (** Linear in the circuit size; calibrated so that one Mycelium
      contribution proof (~2^22 constraints for an N=32768 ciphertext
      encryption) takes ~60 s, the paper's "around a minute". *)

  val verify_seconds : public_io_bytes:int -> float
  (** Pairing check plus one scalar multiplication per public-input
      field element; linear in the I/O size ("Groth16 scales linearly
      in the public I/O size, which ... includes the fairly large
      ciphertexts", §6.6). ~10 s for a 4.3 MB ciphertext. *)

  val contribution_constraints : Mycelium_bgv.Params.t -> int
  (** Circuit size for the §4.6 encryption statement under the given
      BGV parameters. *)
end
