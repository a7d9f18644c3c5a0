(** Shamir secret sharing over a word-sized prime field (Shamir '79).

    Mycelium shares the BGV decryption key among a committee of user
    devices so that any [threshold + 1] members can decrypt but no
    [threshold] colluding members learn anything (§4.2, §5: "any subset
    of t+1 members can reconstruct"). *)

type rq_share = { idx : int; value : Mycelium_math.Rq.t }
(** A share of a ring element: every coefficient of every RNS residue
    row independently Shamir-shared at the same x = idx. Linear ring
    operations on shares commute with reconstruction. *)

val share_rq :
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  Mycelium_math.Rq.t ->
  rq_share array
(** [share_rq rng ~threshold ~parties v] returns one share per party at
    idx = 1..parties, in the evaluation domain (forces [v] there).
    Every residue coefficient gets its own degree-[threshold]
    polynomial, whose [threshold] random coefficients are drawn from
    [rng] prime by prime, coefficient by coefficient, k = 1..threshold.
    It is {!share_rq_weighted} with one dealer of weight 1, and its
    shares equal per-coefficient Horner evaluation of those polynomials
    bit for bit. Raises [Invalid_argument] unless
    [0 < threshold + 1 <= parties < p] for every prime p. *)

val share_rq_weighted :
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  weights:int array array ->
  Mycelium_math.Rq.t list ->
  rq_share array
(** The ring-sharing kernel: [share_rq_weighted rng ~threshold ~parties
    ~weights values] shares sum_i w_i * v_i over the dealers' values
    v_i, where [weights.(pi).(i)] is the weight of the i-th value
    (from 0) in the pi-th prime (the layout of {!lambda_rows}). Each
    dealer draws its own sharing polynomials f_i exactly as
    {!share_rq} would, dealers in list order. The kernel combines
    first, F = sum_i w_i * f_i per residue coefficient, then evaluates
    F once at x = 1..parties; evaluation is linear, so the shares
    equal the weighted sum of per-dealer evaluations bit for bit. Per
    coefficient of each prime that costs (threshold + 1) Shoup
    multiplies per dealer and [threshold] per party. Raises
    [Invalid_argument] on an empty list or under the conditions of
    {!share_rq}; the values must share one basis. *)

val reconstruct_rq : Mycelium_math.Rns.t -> rq_share list -> Mycelium_math.Rq.t

val lambda_rows : Mycelium_math.Rns.t -> int array -> int array array
(** Per-prime Lagrange-at-zero coefficients for the given x
    coordinates: [lambda_rows basis xs].(i) is the coefficient vector
    in the i-th prime field. *)
