(** Negacyclic number-theoretic transform over a word-sized prime field.

    The polynomial ring used by BGV is R_q = Z_q[x]/(x^N + 1) with N a
    power of two. Multiplication in R_q is a *negacyclic* convolution,
    computed here by pre-twisting with powers of a 2N-th root of unity
    psi and running a standard radix-2 NTT, so no zero-padding is
    needed. The prime must satisfy p = 1 (mod 2N).

    {!Rq} runs the Montgomery kernels of {!Mont_backend}; the Shoup
    kernels here are the reference those are tested and benchmarked
    against, and the home of {!find_primes} and {!tables}. *)

type plan
(** Precomputed twiddle tables for one (p, N) pair. *)

val find_primes : degree:int -> bits:int -> count:int -> int list
(** [find_primes ~degree:n ~bits ~count] returns [count] distinct primes
    p with [p = 1 (mod 2n)], of roughly [bits] bits (searching downward
    from 2^bits). [bits <= 31]. Raises [Failure] if too few exist. *)

val make_plan : p:int -> degree:int -> plan
(** Build tables for the ring Z_p[x]/(x^degree + 1). [degree] must be a
    power of two and [p = 1 (mod 2*degree)]. *)

type tables = {
  t_p : int;
  t_n : int;
  t_log_n : int;
  t_psi_pows : int array;  (** psi^(bitrev i), psi a primitive 2N-th root *)
  t_inv_psi_pows : int array;
  t_n_inv : int;
}
(** The raw merged twist+twiddle tables (Longa–Naehrig layout).
    {!Mont_backend} re-encodes exactly these values into the
    Montgomery domain, which is what makes its results bit-identical
    to this module's by construction. *)

val tables : p:int -> degree:int -> tables
(** Same preconditions as {!make_plan}. *)

val modulus : plan -> int

val forward : plan -> int array -> unit
(** In-place forward negacyclic NTT of a length-[degree] coefficient
    array with entries in [\[0, p)]. After the call the array holds the
    evaluation-domain representation. Butterflies use Shoup
    precomputed-quotient multiplication (two multiplies plus a
    conditional subtraction per twiddle product; no division). *)

val inverse : plan -> int array -> unit
(** In-place inverse transform; [inverse plan (forward plan a)] restores
    [a]. *)

val forward_into : plan -> src:int array -> dst:int array -> unit
(** Forward transform reading [src] and writing [dst] without an
    intermediate copy: the first butterfly stage is fused with the
    load. [src] is left intact ([src == dst] is allowed and degrades to
    the in-place transform). *)

val inverse_into : plan -> src:int array -> dst:int array -> unit
(** Inverse counterpart of {!forward_into}. *)

val pointwise : plan -> int array -> int array -> int array
(** Coordinate-wise product of two evaluation-domain arrays: the whole
    cost of a ring multiplication once both operands are resident in
    the evaluation domain. *)

val pointwise_into : plan -> dst:int array -> int array -> int array -> unit
(** [pointwise] into a caller-provided array ([dst] may alias an
    input). *)

val pointwise_acc : plan -> acc:int array -> int array -> int array -> unit
(** [acc.(i) <- acc.(i) + a.(i)*b.(i) mod p]: fused multiply-accumulate
    for convolution cross terms (dot products of component slices). *)

val multiply : plan -> int array -> int array -> int array
(** Negacyclic product of two coefficient-domain polynomials. *)

val multiply_naive : p:int -> int array -> int array -> int array
(** Schoolbook negacyclic product; O(N^2), used as a test oracle and for
    tiny degrees. *)
