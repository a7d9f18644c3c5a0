(** Elements of the polynomial ring R_q = Z_q[x]/(x^N + 1) in RNS form.

    An element stores, for every prime of the basis, a length-N residue
    array — either in the coefficient domain or in the NTT evaluation
    domain (double-CRT form), tracked by a {!repr} tag. Conversion
    between domains is lazy and in place: operations force the
    representation they need, cache it, and never change the
    mathematical value. All operations are functional with respect to
    that value (an input's *representation* may change; the ring
    element it denotes never does). *)

type t

type repr = Coeff | Eval
(** [Coeff]: rows hold polynomial coefficients. [Eval]: rows hold the
    negacyclic NTT of the coefficients (evaluation domain), in which
    ring multiplication is coordinate-wise. *)

val basis_of : t -> Rns.t

val repr_of : t -> repr
(** The domain the rows currently reside in. *)

val force_eval : t -> unit
(** Convert to the evaluation domain in place (no-op if already
    there). Use before sharing a value across parallel tasks so no two
    tasks race to convert it. *)

(* lint: allow unused-export — test_ringops, test_math and test_bgv read
   coefficient-domain rows through it; the program converts lazily *)
val force_coeff : t -> unit
(** Convert to the coefficient domain in place. *)

val zero : Rns.t -> t

val of_centered_coeffs : Rns.t -> int array -> t
(** Lift an array of signed machine-int coefficients (length <= N,
    padded with zeros). *)

val to_bigint_coeffs : t -> Bigint.t array
(** CRT-reconstruct every coefficient, centered in [(-q/2, q/2\]].
    Cold path; does not change the input's resident representation
    (an Eval input is inverse-transformed into a scratch copy). *)

val centered_mod : t -> modulus:int -> int array
(** Every coefficient, centered in [(-q/2, q/2\]], reduced into
    [\[0, modulus)] on native ints ({!Rns.centered_mod_rows}): BGV's
    final decryption step. Like {!to_bigint_coeffs}, leaves the input's
    resident representation alone. *)

val rns_digits : t -> t array
(** The RNS gadget decomposition used by key switching: digit [j] is
    the coefficient residue row [j], centered in [(-p_j/2, p_j/2\]] and
    lifted to every limb, so [sum_j digit_j * u_j = t] where [u_j] has
    residue 1 at limb [j] and 0 elsewhere. Digits are returned in
    [Eval]; limb [j] of digit [j] is the input's own evaluation row
    when the input is resident there, so each digit costs L - 1
    forward transforms. Leaves the input's resident representation
    alone. *)

val residues : t -> int array array
(** Underlying per-prime rows, in the domain reported by {!repr_of}
    (do not mutate). Callers that need a specific domain must force it
    first. *)

val of_residues : ?repr:repr -> Rns.t -> int array array -> t
(** Adopt per-prime rows (copied), tagged with the domain they are in
    ([Coeff] by default). Lengths must match the basis. *)

(* lint: allow unused-export — only tests compare ring elements
   (test_math, test_ringops, test_secrets) *)
val equal : t -> t -> bool
(** Mathematical equality: a mixed-representation pair is normalised
    to a common domain (forcing both operands to [Eval]) and the limb
    arrays are compared element by element. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
(** Linear ops work in either domain and preserve the operands'
    representation; a mixed pair meets in [Eval]. *)

val mul : t -> t -> t
(** Negacyclic product. Forces both operands to [Eval] (lazily, once
    per value) and multiplies coordinate-wise per limb; the result
    stays in [Eval]. *)

val mul_add_centered : u:int array -> (t * int array) array -> t array
(** [mul_add_centered ~u [| (a_1, e_1); ...; (a_k, e_k) |]] is
    [| a_1 * u + e_1; ...; a_k * u + e_k |] with [u] and every [e_i]
    given as signed coefficients of length N and lifted as
    {!of_centered_coeffs} lifts them: BGV encryption's
    [c_i = p_i * u + (t * e_i + m)]. The residues are those of
    [add (mul a_i (of_centered_coeffs b u)) (of_centered_coeffs b e_i)],
    computed in one fused pass per limb
    ({!Mont_backend.lift_mul_add}) that allocates only the [k * L]
    output rows. Forces every [a_i] to [Eval] (all share one basis);
    the results are [Eval]. Counts [(k + 1) * L] limb transforms and
    [k * L] limb multiplies, as the separate ops would, but opens no
    [rq.mul] span. *)

val dot : t array -> t array -> t
(** [dot a b = sum_i a.(i) * b.(i)], fused: each limb runs one
    multiply-accumulate pass per term into a single accumulator row.
    Forces every operand to [Eval]; the result is [Eval]. Used for the
    cross-term diagonals of ciphertext tensor products. *)

val mul_scalar : t -> int -> t
(** Multiply by a signed integer scalar (domain-agnostic; preserves
    representation). *)

val mul_scalar_residues : t -> int array -> t
(** Multiply by a scalar given directly by its per-prime residues (for
    scalars wider than a machine word, e.g. a Lagrange coefficient or
    the RNS gadget's [u_j]). Domain-agnostic; preserves
    representation. *)

val random_uniform : Rns.t -> Mycelium_util.Rng.t -> t
(** Uniform element of R_q (independent uniform residues per prime,
    which is exactly uniform mod q by CRT). *)

val sample_ternary : Rns.t -> Mycelium_util.Rng.t -> t
(** Coefficients uniform in {-1, 0, 1}; the BGV secret-key
    distribution. *)

val sample_ternary_coeffs : Rns.t -> Mycelium_util.Rng.t -> int array
(** The N signed coefficients {!sample_ternary} lifts, drawn the same
    way: [sample_ternary b rng = of_centered_coeffs b
    (sample_ternary_coeffs b rng)]. *)

val sample_cbd : Rns.t -> eta:int -> Mycelium_util.Rng.t -> t
(** Centered binomial with parameter eta (variance eta/2): the error
    distribution, a standard stand-in for a discrete Gaussian. *)
