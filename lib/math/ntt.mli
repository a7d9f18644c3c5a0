(** Tables and primes for the negacyclic number-theoretic transform
    over a word-sized prime field.

    The polynomial ring used by BGV is R_q = Z_q[x]/(x^N + 1) with N a
    power of two. Multiplication in R_q is a *negacyclic* convolution,
    computed by pre-twisting with powers of a 2N-th root of unity psi
    and running a standard radix-2 NTT, so no zero-padding is needed.
    The prime must satisfy p = 1 (mod 2N).

    The transform itself runs in {!Mont_backend}; this module finds the
    primes ({!find_primes}), builds the tables it reads ({!tables}) and
    keeps the schoolbook product ({!multiply_naive}). *)

val find_primes : degree:int -> bits:int -> count:int -> int list
(** [find_primes ~degree:n ~bits ~count] returns [count] distinct primes
    p with [p = 1 (mod 2n)], of roughly [bits] bits (searching downward
    from 2^bits). [bits <= 31]. Raises [Failure] if too few exist. *)

type tables = {
  t_p : int;
  t_n : int;
  t_log_n : int;
  t_psi_pows : int array;  (** psi^(bitrev i), psi a primitive 2N-th root *)
  t_inv_psi_pows : int array;
  t_n_inv : int;
}
(** The raw merged twist+twiddle tables (Longa–Naehrig layout), which
    {!Mont_backend} re-encodes into the Montgomery domain. *)

val tables : p:int -> degree:int -> tables
(** Tables for the ring Z_p[x]/(x^degree + 1). [degree] must be a power
    of two and [p = 1 (mod 2*degree)]. *)

val multiply_naive : p:int -> int array -> int array -> int array
(** Schoolbook negacyclic product; O(N^2). The tests use it as their
    product oracle and the bench times it as an ablation. *)
