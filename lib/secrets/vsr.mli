(** Secret redistribution: the committee hand-off of §4.2.

    Moves a Shamir-shared secret from an old committee with threshold t
    to a new committee with threshold t' *without ever reconstructing
    it*. Members of different committees cannot pool their (old + new)
    shares to recover the key, because the new shares are re-randomized
    by fresh sub-share polynomials: new member j's share is
    y'_j = sum_{i in U} lambda_i f_i(j) over a subset U of t+1 old
    members, each of which re-shares its share y_i = f_i(0).

    The paper's protocol is Extended VSR (Gupta–Gopinath [46]), in
    which every dealer publishes a Feldman commitment to its sub-share
    polynomials and every new member checks what it receives, so a
    lying old member is caught. This reproduction ships no verifier:
    the hand-off is unchecked, and a lying dealer would go unnoticed
    (DESIGN.md §2). *)

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
    lambda-weighted sum of its sub-shares. Nothing checks the
    dealings. Raises [Invalid_argument] on an empty list, a duplicate
    share index, t' < 0, n' < t' + 1 or n' >= p. *)
