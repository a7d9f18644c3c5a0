(** Threshold BGV decryption by a user-device committee (§4.2, §5).

    The aggregator hands the committee a relinearized (degree-1)
    aggregate ciphertext. Each participating member locally computes a
    partial decryption from its key share — applying its Lagrange
    coefficient itself and adding t-scaled smudging noise so that
    nothing beyond the plaintext leaks — and the partials plus c_0
    simply sum to the noisy plaintext. The Laplace noise for
    differential privacy is added inside this MPC, before anything is
    released to the aggregator (implementation change (2) of §5). *)

type key_share = Shamir.rq_share

val share_secret_key :
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  Mycelium_bgv.Bgv.secret_key ->
  key_share array
(** Share the BGV key polynomial coefficient-wise. *)

val reconstruct_secret_key :
  Mycelium_bgv.Bgv.ctx -> key_share list -> Mycelium_bgv.Bgv.secret_key
(** What [threshold+1] *malicious* members could do (a privacy failure,
    Fig. 8a); exists for tests and the committee-capture experiment. *)

val decrypt :
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_util.Rng.t ->
  threshold:int ->
  live:key_share list ->
  Mycelium_bgv.Bgv.ciphertext ->
  (Mycelium_bgv.Plaintext.t * int array, string) result
(** Full threshold decryption from whichever shares are live: picks
    any [threshold + 1] of [live] (Shamir guarantees every such subset
    reconstructs the same plaintext — the §6.3 liveness story under
    committee crashes). Each participant x computes the partial
    decryption lambda_x * (c_1 * s_x) + t * e_smudge, and c_0 plus the
    partials, decoded mod t, is the plaintext. Returns the plaintext
    and the participant indices used. Fails if fewer than
    [threshold + 1] shares are live or the ciphertext is not degree 1. *)
