(** Verifiable secret redistribution (Extended VSR, Gupta–Gopinath
    [46]; §4.2).

    Moves a Shamir-shared secret from an old committee with threshold t
    to a new committee with threshold t' *without ever reconstructing
    it*, and in a way the new members can verify. Members of different
    committees cannot pool their (old + new) shares to recover the key,
    because the new shares are re-randomized by fresh sub-share
    polynomials.

    Protocol, per secret element over field p:
    + a subset U of t+1 old members each re-shares its share y_i to the
      new committee (threshold t'), publishing a Feldman commitment to
      the sub-share polynomial;
    + every new member j checks each sub-share against the commitment,
      and checks the commitment's constant term against g^{f(x_i)}
      derived from the *old* commitment — so a lying old member is
      caught;
    + new member j's share is y'_j = sum_{i in U} lambda_i yhat_{ij}.

    The BGV key is a ring element (N coefficients x L primes). The
    runtime's committee hand-off ([Committee.rotate]) runs
    {!redistribute_rq} alone, and that ring hand-off is unchecked: no
    commitment is published and no new member verifies what it
    receives, so a lying dealer would go unnoticed. The scalar verified
    protocol above, and the hooks that would let it vouch for a ring
    dealing without N*L commitment vectors — a Fiat–Shamir random
    linear combination of coefficients ({!batch_weights}, {!fold_rq})
    checked with scalar dealings — are implemented and tested, but no
    caller in the runtime uses them (DESIGN.md §2). *)

type dealing = {
  from_x : int;  (** the old member's share index *)
  sub_shares : Shamir.share array;  (** one per new member, x = 1..n' *)
  commitment : Feldman.commitment;  (** commits to the sub-polynomial *)
}

val deal :
  group:Feldman.group ->
  Mycelium_util.Rng.t ->
  new_threshold:int ->
  new_parties:int ->
  Shamir.share ->
  dealing
(** An old member re-shares its share to the new committee. *)

val verify_dealing :
  group:Feldman.group -> old_commitment:Feldman.commitment -> dealing -> bool
(** Binding check (constant term vs old commitment) + all sub-shares
    verify. *)

val verify_sub_share : group:Feldman.group -> dealing -> int -> bool
(** [verify_sub_share ~group d j] checks only new member [j]'s
    sub-share (1-based), which is all member j can check privately. *)

val finish : p:int -> dealings:dealing list -> int -> Shamir.share
(** [finish ~p ~dealings j] computes new member [j]'s share (1-based)
    from the sub-shares addressed to it. The dealings' [from_x] must be
    distinct. *)

val new_commitment : group:Feldman.group -> dealings:dealing list -> Feldman.commitment
(** Commitment to the new sharing polynomial, publishable for the next
    round. *)

(** {2 Ring-element redistribution} *)

val redistribute_rq :
  Mycelium_util.Rng.t ->
  new_threshold:int ->
  new_parties:int ->
  Shamir.rq_share list ->
  Shamir.rq_share array
(** Redistribute a shared ring element (e.g. the BGV key): takes t+1
    old shares, returns the new committee's shares at idx = 1..n'.
    Reconstruction of the new shares equals reconstruction of the old.

    Combine, then evaluate: each old member i, in list order, deals its
    share with fresh sharing polynomials f_i, drawn from [rng] prime by
    prime, coefficient by coefficient, k = 1..t' (the order of
    {!Shamir.share_rq}); the kernel ({!Shamir.share_rq_weighted})
    sums lambda_i * f_i into one polynomial F per residue coefficient,
    with lambda_i the dealers' Lagrange coefficients at zero, and
    evaluates F once at each new member's point. The shares equal, bit
    for bit, one {!Shamir.share_rq} per dealer followed by the
    lambda-weighted sum of its sub-shares. The dealings are not
    checked (see above). Raises [Invalid_argument] on an empty list, a
    duplicate share index, t' < 0, n' < t' + 1 or n' >= p. *)

val batch_weights :
  Mycelium_math.Rns.t -> context:bytes -> int array array
(** Fiat–Shamir weights gamma.(prime).(coeff) derived from a public
    context hash; both dealer and verifier compute them, so the scalar
    [sum gamma_c * share_c mod p] of any share is publicly agreed. *)

val fold_rq : Mycelium_math.Rns.t -> int array array -> Mycelium_math.Rq.t -> int array
(** [fold_rq basis gamma v] collapses a ring element to one scalar per
    prime with the given weights; linear, so it commutes with Shamir
    reconstruction — the hook that lets scalar commitments vouch for
    ring dealings. *)
