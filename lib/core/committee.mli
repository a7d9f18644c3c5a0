(** Committee lifecycle (§4.2, §5): a genesis committee generates the
    BGV keys once and Shamir-shares the decryption key; each query is
    then decrypted by a randomly drawn committee of user devices, and
    ownership of the key moves committee-to-committee by secret
    redistribution — Orchard's per-query key generation is gone
    (Mycelium's second modification to Orchard). The paper verifies
    each hand-off (VSR); this one is unverified ({!Mycelium_secrets.Vsr},
    DESIGN.md §2).

    Decryption adds the differential-privacy noise *inside* the MPC,
    before anything reaches the aggregator. *)

(* lint: allow interface — a committee holds secret shares behind an abstract barrier; comparing two committees is never meaningful *)
type t

val committee_size : t -> int
(* lint: allow unused-export — test_core reads the drawn member ids back *)
val members : t -> int array
(** Device ids of the current committee. *)

val generation : t -> int
(** How many VSR hand-offs have happened (0 = genesis holders). *)

val genesis :
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  size:int ->
  threshold:int ->
  relin_degree:int ->
  t * Mycelium_bgv.Bgv.public_key * Mycelium_bgv.Bgv.relin_key * Mycelium_zkp.Zkp.srs
(** The genesis ceremony: BGV keygen, relinearization keys, the ZKP
    trusted setup, and the initial sharing. The secret key itself is
    discarded — from here on it exists only as shares. *)

val rotate : t -> Mycelium_util.Rng.t -> population:int -> t
(** Draw the next committee from the device population and hand the key
    over with VSR; the old committee's shares become useless (shares of
    different sharings do not mix). *)

type release = {
  noisy_bins : float array;
  result : Mycelium_query.Semantics.result;
  participants : int array;
  attempts : int;
      (** decryption rounds needed before enough members were reachable
          (1 when everyone answers; the Fig 8b liveness story) *)
}

type batch_member = {
  b_info : Mycelium_query.Analysis.info;
  b_epsilon : float;
  b_noise_rng : Mycelium_util.Rng.t;
      (** the member's own noise stream — never shared across the
          batch, so a member's released bytes cannot depend on who
          else shared the decryption session *)
}

val decrypt_batch :
  ?churn:float ->
  ?max_attempts:int ->
  ?excluded:int list ->
  t ->
  Mycelium_util.Rng.t ->
  Mycelium_bgv.Bgv.ctx ->
  members:(batch_member * Mycelium_bgv.Bgv.ciphertext) list ->
  (release list, string) result
(** One committee threshold-decryption session shared by a whole batch:
    each member's relinearized aggregate is shifted into a disjoint
    window of the plaintext ring (homomorphic multiplication by the
    monomial x^offset), the shifted ciphertexts are summed, the single
    combined ciphertext is decrypted once, and the concatenated
    coefficient vector is sliced back apart per member. Threshold
    reconstruction is exact for any threshold+1 live shares and the
    windows cannot wrap (the call fails if the batch's total bin count
    exceeds the ring degree N), so each member's sliced counts — and
    therefore its noised release, drawn from its own [b_noise_rng] —
    are bit-identical to a session of that member alone seeded with
    the same noise stream. [rng] drives only recruitment and the
    decryption smudging noise, neither of which can move a released
    byte.

    Each committee member is independently unreachable with
    probability [churn] (default 0); with fewer than threshold+1
    present the committee "waits for some amount of time... and
    retries" (§6.5) up to [max_attempts] (default 10). [excluded]
    members (crashed, per the fault plan) never answer: decryption
    still succeeds with any threshold+1 of the remaining live shares.
    Fails if a ciphertext is not degree 1 or liveness never recovers;
    raises [Invalid_argument] on an empty batch. *)

val decrypt_and_release :
  ?churn:float ->
  ?max_attempts:int ->
  ?excluded:int list ->
  t ->
  Mycelium_util.Rng.t ->
  Mycelium_bgv.Bgv.ctx ->
  info:Mycelium_query.Analysis.info ->
  epsilon:float ->
  Mycelium_bgv.Bgv.ciphertext ->
  (release, string) result
(** A {!decrypt_batch} session of one: threshold-decrypt a relinearized
    aggregate, apply the §4.4 final processing with calibrated Laplace
    noise (per histogram bin for HISTO; per group sum for GSUM) drawn
    from [rng] after recruitment and decryption, and release. *)

(* lint: allow unused-export — test_core rebuilds the key from the
   committee's shares, which only this module holds *)
val reconstruct_for_tests : t -> Mycelium_bgv.Bgv.ctx -> Mycelium_bgv.Bgv.secret_key
(** Rebuild the secret key from shares — the committee-capture failure
    mode, available so tests can compare against direct decryption. *)
