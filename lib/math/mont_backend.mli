(** Montgomery Bigarray NTT kernels: the ring kernels every {!Rns}
    basis runs on.

    The negacyclic transform over the tables of {!Ntt.tables}, with
    Montgomery-domain twiddles (radix R = 2^62, see {!Montarith}),
    radix-4 butterflies (two radix-2 stages fused per memory pass) and
    unchecked accesses into a flat unboxed [Bigarray] workspace held
    per domain. Every butterfly output is canonically reduced to
    [\[0, p)]. {!forward_into} and BGV encryption's fused
    {!lift_mul_add} run the same forward butterfly stages.

    Callers normally reach this through {!Rq}. *)

type plan
(** Montgomery-domain twiddle tables for one (p, N) pair. *)

val make_plan : p:int -> degree:int -> plan
(** Tables for the ring Z_p[x]/(x^degree + 1). [degree] must be a power
    of two and [p = 1 (mod 2*degree)]; Montgomery reduction here also
    requires an odd modulus below 2^30 (the bound that keeps every
    intermediate inside a 63-bit [int]), which 30-bit NTT primes from
    {!Ntt.find_primes} always satisfy. Raises [Invalid_argument]
    otherwise. *)

val forward : plan -> int array -> unit
(** In-place forward negacyclic NTT of a length-[degree] coefficient
    array with entries in [\[0, p)]; afterwards the array holds the
    evaluation-domain representation. *)

val inverse : plan -> int array -> unit
(** In-place inverse transform; [inverse plan (forward plan a)] restores
    [a]. *)

val forward_into : plan -> src:int array -> dst:int array -> unit
(** Forward transform reading [src] and writing [dst]; [src] is left
    intact ([src == dst] is allowed and is the in-place transform). *)

val inverse_into : plan -> src:int array -> dst:int array -> unit
(** Inverse counterpart of {!forward_into}. *)

val lift_mul_add : plan -> u:int array -> (int array * int array * int array) array -> unit
(** [lift_mul_add plan ~u [| (a_1, e_1, dst_1); ... |]] writes into
    every [dst_k] the evaluation-domain row [a_k * û + ê_k], where [û]
    and [ê_k] are the forward transforms of the signed coefficient
    arrays [u] and [e_k] lifted mod p (as {!Rq.of_centered_coeffs}
    lifts) and [a_k] is an evaluation-domain row: BGV encryption for one
    limb. [u] is lifted and transformed once; each [e_k] is lifted
    straight into the workspace, transformed, and combined in the
    canonicalising copy out. The residues equal those of transforming,
    multiplying ({!pointwise_into}) and adding in separate passes. Every
    array has length [degree]. *)

val pointwise_into : plan -> dst:int array -> int array -> int array -> unit
(** Coordinate-wise product of two evaluation-domain arrays into [dst]
    ([dst] may alias an input): the whole cost of a ring multiplication
    once both operands are resident in the evaluation domain. *)

val pointwise_acc : plan -> acc:int array -> int array -> int array -> unit
(** [acc.(i) <- acc.(i) + a.(i)*b.(i) mod p]: fused multiply-accumulate
    for convolution cross terms (dot products of component slices). *)
